package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestGraphs, TestRefs}
import repro.graph.Graph

class RandomWalksSpec extends SparkSpec {

  private val c = 0.6

  test("every walk starts at the query node at step 0") {
    val g = TestGraphs.directed(spark).toMap.apply("er60")
    val w = RandomWalks.sqrtCWalks(g, 7, 500, c, 10, seed = 1)
    val starts = w.where(col("step") === 0)
    assert(starts.count() == 500)
    assert(starts.where(col("node") =!= 7).count() == 0)
  }

  test("consecutive walk positions follow reversed edges") {
    val g = TestGraphs.directed(spark).toMap.apply("pl80")
    val w = RandomWalks.sqrtCWalks(g, 3, 300, c, 8, seed = 2).collect()
      .groupBy(_.getLong(0)).values
    val lg = g.local
    w.foreach { rows =>
      val path = rows.sortBy(_.getInt(1)).map(_.getLong(2).toInt)
      path.sliding(2).foreach {
        case Array(a, b) => assert(lg.inNeighbors(a).contains(b), s"step $a -> $b not an in-edge")
        case _           =>
      }
    }
  }

  test("walks from a node with no in-neighbors stop immediately") {
    val g = TestGraphs.star(spark) // leaves have no in-edges; hub's walk dies after 1 step
    val w = RandomWalks.sqrtCWalks(g, 3, 200, c, 10, seed = 3)
    assert(w.count() == 200) // only step 0
    val wh = RandomWalks.sqrtCWalks(g, 0, 200, c, 10, seed = 4)
    assert(wh.agg(max("step")).collect()(0).getInt(0) <= 1)
  }

  test("survival probability per step is ~sqrt(c)") {
    val g = TestGraphs.directed(spark).toMap.apply("cycle8") // walks never hit dead ends
    val n = 20000
    val w = RandomWalks.sqrtCWalks(g, 0, n, c, 12, seed = 5)
    val atStep1 = w.where(col("step") === 1).count().toDouble / n
    val sqrtC   = math.sqrt(c)
    assert(math.abs(atStep1 - sqrtC) < 0.02, s"survival $atStep1 vs $sqrtC")
    val atStep3 = w.where(col("step") === 3).count().toDouble / n
    assert(math.abs(atStep3 - math.pow(sqrtC, 3)) < 0.02)
  }

  test("empirical visit frequencies match the hitting-probability DP") {
    val g  = TestGraphs.directed(spark).toMap.apply("toy")
    val n  = 40000
    val w  = RandomWalks.visitCounts(g, 7, n, c, 4, seed = 6).collect()
    val dp = TestRefs.hittingDP(g.local, 7, c, 4)
    w.foreach { r =>
      val (step, node, visits) = (r.getInt(0), r.getLong(1).toInt, r.getLong(2))
      assert(math.abs(visits.toDouble / n - dp(step)(node)) < 0.015,
        s"step=$step node=$node emp=${visits.toDouble / n} dp=${dp(step)(node)}")
    }
  }

  test("walks are deterministic given a seed and differ across seeds") {
    val g  = TestGraphs.directed(spark).toMap.apply("er60")
    def sig(seed: Long) = RandomWalks.sqrtCWalks(g, 1, 100, c, 8, seed).collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2))).toSet
    assert(sig(11) == sig(11))
    assert(sig(11) != sig(12))
  }

  /** The oracle for [[RandomWalks.countVisits]]: the DataFrame
    * `groupBy(step, node).count` of the per-visit walk rows.
    */
  private def oracleCounts(g: Graph, start: Long, numWalks: Long, maxSteps: Int,
                           seed: Long): Map[(Int, Long), Long] =
    RandomWalks.sqrtCWalks(g, start, numWalks, c, maxSteps, seed)
      .groupBy("step", "node").count()
      .collect().map(r => (r.getInt(0), r.getLong(1)) -> r.getLong(2)).toMap

  private def nonZero(counts: Array[Int], n: Int): Map[(Int, Long), Long] =
    counts.indices.filter(counts(_) > 0).map(i => (i / n, (i % n).toLong) -> counts(i).toLong).toMap

  // path6 walks end at the dead end 0; at maxSteps = 3 the cycle8 and
  // complete5 walks (which never meet a dead end) are truncated.
  for ((name, _) <- TestGraphs.directed(SparkSpec.shared); maxSteps <- Seq(3, 12)) {
    test(s"visit counts equal the groupBy count of the walk rows on $name, maxSteps=$maxSteps") {
      val g     = TestGraphs.directed(spark).toMap.apply(name)
      val lg    = g.local
      val start = (lg.n - 1 to 0 by -1).find(lg.inDeg(_) > 0).get
      val got   = RandomWalks.countVisits(g, start, 20000, c, maxSteps, seed = 13)
      assert(got.length == (maxSteps + 1) * lg.n)
      assert(nonZero(got, lg.n) == oracleCounts(g, start, 20000, maxSteps, seed = 13))
      if (name == "path6" && maxSteps == 12) // walks reach the dead end at step 5 and stop there
        assert(got(5 * lg.n) > 0 && got.drop(6 * lg.n).forall(_ == 0))
      if (name == "cycle8" && maxSteps == 3) // walks alive at the cap
        assert(got.drop(3 * lg.n).sum > 0)
    }
  }

  test("visit counts do not depend on the number of tasks") {
    for ((name, g) <- TestGraphs.directed(spark)) {
      val one = RandomWalks.countVisits(g, 1, 5000, c, 8, seed = 17, numSlices = 1)
      assert(RandomWalks.countVisits(g, 1, 5000, c, 8, seed = 17).sameElements(one), name)
      assert(RandomWalks.countVisits(g, 1, 5000, c, 8, seed = 17, numSlices = 7).sameElements(one), name)
    }
  }

  test("visit counts fail fast when (maxSteps + 1) * n exceeds an Int index") {
    val g = TestGraphs.directed(spark).toMap.apply("toy") // n = 8
    val e = intercept[IllegalArgumentException](
      RandomWalks.countVisits(g, 0, 100, c, maxSteps = Int.MaxValue / 8, seed = 1))
    assert(e.getMessage.contains("exceed"), e.getMessage)
  }

  test("mix produces well-spread seeds") {
    val vals = (0L until 1000L).map(RandomWalks.mix(99, _)).toSet
    assert(vals.size == 1000)
  }
}
