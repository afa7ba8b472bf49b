package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs, TestRefs}

class SourcePushSpec extends SparkSpec {

  private val c     = 0.6
  private val delta = 1e-4

  test("epsH and L* match the paper's formulas") {
    val eh = SourcePush.epsH(0.02, 0.6)
    // (1 - sqrt(0.6)) / (3 sqrt(0.6)) * 0.02 = 0.2254/2.3238 * 0.02
    assert(math.abs(eh - 0.0019398) < 1e-6)
    val lStar = SourcePush.maxLevelBound(eh, 0.6)
    assert(lStar == math.floor(math.log(1 / eh) / math.log(1 / math.sqrt(0.6))).toInt)
    assert(lStar > 0)
  }

  test("walk budget grows as 1/epsH^2") {
    val b1 = SourcePush.walkBudget(0.01, 0.6, 1e-4)
    val b2 = SourcePush.walkBudget(0.005, 0.6, 1e-4)
    assert(b2 > 3 * b1 && b2 < 5 * b1)
  }

  // Exactness of the propagated hitting probabilities, per graph.
  for ((name, _) <- TestGraphs.all(SparkSpec.shared)) {
    test(s"hitting probabilities equal the exact DP on $name") {
      val g    = TestGraphs.all(spark).toMap.apply(name)
      val u    = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
      val epsH = SourcePush.epsH(0.25, c)
      val sg   = SourcePush.run(g, u, c, epsH, delta, maxWalks = 60000, seed = 21)
      val dp   = TestRefs.hittingDP(g.local, u, c, sg.L)
      for (l <- 0 to sg.L) {
        // every nonzero DP entry present and equal
        for (v <- 0 until g.local.n if dp(l)(v) > 1e-12) {
          val got = sg.h(l).getOrElse(v.toLong, 0.0)
          assert(math.abs(got - dp(l)(v)) < 1e-9, s"level $l node $v: $got vs ${dp(l)(v)}")
        }
        // no spurious entries
        sg.h(l).foreach { case (v, hv) =>
          assert(math.abs(hv - dp(l)(v.toInt)) < 1e-9)
        }
      }
    }
  }

  test("level mass sums to sqrt(c)^l on graphs without dead ends") {
    val g    = TestGraphs.directed(spark).toMap.apply("cycle8")
    val epsH = SourcePush.epsH(0.3, c)
    val sg   = SourcePush.run(g, 0, c, epsH, delta, maxWalks = 30000)
    for (l <- 0 to sg.L) {
      assert(math.abs(sg.h(l).values.sum - math.pow(math.sqrt(c), l)) < 1e-9, s"level $l")
    }
  }

  test("attention sets are exactly the nodes with h >= epsH, levels >= 1") {
    val g    = TestGraphs.directed(spark).toMap.apply("pl80")
    val u    = (0 until 80).find(g.local.inDeg(_) > 0).get
    val epsH = SourcePush.epsH(0.2, c)
    val sg   = SourcePush.run(g, u, c, epsH, delta, maxWalks = 60000)
    assert(sg.attention(0).isEmpty)
    for (l <- 1 to sg.L) {
      val expected = sg.h(l).filter(_._2 >= epsH)
      assert(sg.attention(l) == expected, s"level $l")
    }
    // Lemma 2: the attention count is bounded.
    val bound = math.sqrt(c) / ((1 - math.sqrt(c)) * epsH)
    assert(sg.attentionCount <= bound)
  }

  test("L is bounded by L*") {
    val g    = TestGraphs.directed(spark).toMap.apply("cycle8")
    val epsH = SourcePush.epsH(0.3, c)
    val sg   = SourcePush.run(g, 0, c, epsH, delta, maxWalks = 30000)
    assert(sg.L <= SourcePush.maxLevelBound(epsH, c))
  }

  test("G_u edges are real reversed graph edges between adjacent levels") {
    val g    = TestGraphs.directed(spark).toMap.apply("toy")
    val epsH = SourcePush.epsH(0.25, c)
    val sg   = SourcePush.run(g, 0, c, epsH, delta, maxWalks = 30000)
    val edgeSet = g.edges.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    for (l <- 0 until sg.L) {
      sg.downEdges(l).foreach { case (up, down) =>
        assert(edgeSet.contains((up, down)), s"($up,$down) not an edge")
        assert(sg.h(l).contains(down), s"down node $down missing at level $l")
        assert(sg.h(l + 1).contains(up), s"up node $up missing at level ${l + 1}")
      }
    }
  }

  test("every expanded G_u node keeps its full in-neighborhood (I^T = I)") {
    val g    = TestGraphs.directed(spark).toMap.apply("er60")
    val u    = (0 until 60).find(g.local.inDeg(_) > 0).get
    val epsH = SourcePush.epsH(0.25, c)
    val sg   = SourcePush.run(g, u, c, epsH, delta, maxWalks = 30000)
    val inT  = TestRefs.guInNeighbors(sg)
    for (l <- 0 until sg.L; v <- sg.h(l).keys) {
      val expected = g.local.inNeighbors(v.toInt).map(_.toLong).toSet
      val got      = inT.getOrElse((l, v), Seq.empty).toSet
      assert(got == expected, s"level $l node $v")
    }
  }

  test("query node with no in-neighbors yields an empty source graph") {
    val g  = TestGraphs.star(spark)
    val sg = SourcePush.run(g, 3, c, SourcePush.epsH(0.2, c), delta, maxWalks = 5000)
    assert(sg.L == 0 && sg.attentionCount == 0)
  }

  test("an L* below 0 (eps_h > 1) detects no level") {
    val g    = TestGraphs.directed(spark).toMap.apply("toy")
    val epsH = SourcePush.epsH(0.9, 0.01)
    assert(SourcePush.maxLevelBound(epsH, 0.01) < 0)
    val sg = SourcePush.run(g, 0, 0.01, epsH, delta, maxWalks = 1000)
    assert(sg.L == 0 && sg.attentionCount == 0)
  }

  test("source graph is deterministic given the seed") {
    val g = TestGraphs.directed(spark).toMap.apply("er60")
    val u = (0 until 60).find(g.local.inDeg(_) > 0).get
    val epsH = SourcePush.epsH(0.25, c)
    val a = SourcePush.run(g, u, c, epsH, delta, maxWalks = 20000, seed = 5)
    val b = SourcePush.run(g, u, c, epsH, delta, maxWalks = 20000, seed = 5)
    assert(a.L == b.L && a.h == b.h && a.attention == b.attention)
  }

  // L against the oracle: Algorithm 2's rule applied to the DataFrame
  // groupBy(step, node).count of the per-visit walk rows.
  for (name <- Seq("toy", "er60", "pl80", "cycle8")) {
    test(s"detected L equals the L of the groupBy-count oracle on $name") {
      val g     = TestGraphs.directed(spark).toMap.apply(name)
      val u     = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
      val epsH  = SourcePush.epsH(0.25, c)
      val lStar = SourcePush.maxLevelBound(epsH, c)
      val sg    = SourcePush.run(g, u, c, epsH, delta, maxWalks = 60000, seed = 23)
      val detected = RandomWalks.sqrtCWalks(g, u, sg.numWalks, c, lStar, seed = 23)
        .groupBy("step", "node").count()
        .where(col("step") >= 1 && col("count") >= epsH / 2 * sg.numWalks)
        .agg(max("step")).collect()(0)
      val expected = if (detected.isNullAt(0)) 0 else math.min(detected.getInt(0), lStar)
      assert(expected >= 1, s"$name: the oracle detects no level")
      assert(sg.L == expected, s"$name: L=${sg.L}, oracle $expected")
    }
  }
}
