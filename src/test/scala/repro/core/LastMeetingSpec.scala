package repro.core

import repro.{SparkSpec, TestGraphs, TestRefs}

class LastMeetingSpec extends SparkSpec {

  private val c     = 0.6
  private val delta = 1e-4

  private def sourceGraph(name: String, eps: Double = 0.25): SourceGraph = {
    val g = TestGraphs.all(spark).toMap.apply(name)
    val u = (0 until g.numNodes.toInt).find(g.local.inDeg(_) > 0).get
    SourcePush.run(g, u, c, SourcePush.epsH(eps, c), delta, maxWalks = 60000, seed = 33)
  }

  // --- Algorithm 3: hitting probabilities within G_u ---

  for (name <- Seq("cycle8", "toy", "er60", "pl80", "complete5")) {
    test(s"G_u hitting probabilities match the in-G_u DP on $name") {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      if (sg.L >= 2) {
        val hp = LastMeeting.hittingProbs(sg, c, g.local)
        // For every attention node w at level l, its entries must equal the
        // restriction of the exact G_u walk DP from (l, w) to attention targets.
        for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
          val dp = TestRefs.guHittingDP(sg, c, l, w)
          val entries = hp(l).getOrElse(w, scala.collection.mutable.Map.empty[(Int, Long), Double])
          // all recorded entries correct
          entries.foreach { case ((lvl, wi), v) =>
            assert(sg.attention(lvl).contains(wi), s"non-attention target ($lvl,$wi)")
            assert(math.abs(v - dp.getOrElse((lvl, wi), 0.0)) < 1e-9,
              s"h~ from ($l,$w) to ($lvl,$wi): $v vs ${dp.getOrElse((lvl, wi), 0.0)}")
          }
          // no attention target missed
          for (lvl <- l to sg.L; wi <- sg.attention(lvl).keys) {
            val expect = dp.getOrElse((lvl, wi), 0.0)
            if (expect > 1e-12)
              assert(entries.contains((lvl, wi)), s"missing target ($lvl,$wi) from ($l,$w)")
          }
        }
      }
    }
  }

  test("attention self-probability is 1 at step 0") {
    val g  = TestGraphs.all(spark).toMap.apply("toy")
    val sg = sourceGraph("toy")
    val hp = LastMeeting.hittingProbs(sg, c, g.local)
    for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
      assert(hp(l)(w)((l, w)) == 1.0)
    }
  }

  // --- Algorithm 4: gamma ---

  for (name <- Seq("cycle8", "toy", "er60", "pl80", "plU60")) {
    test(s"gamma matches the exact pair-state DP on $name") {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      val hp = LastMeeting.hittingProbs(sg, c, g.local)
      val gammas = LastMeeting.gammas(sg, hp)
      for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
        val expect = TestRefs.gammaPairDP(sg, c, l, w)
        val got    = gammas((l, w))
        assert(math.abs(got - expect) < 1e-9, s"gamma($l,$w): $got vs $expect")
      }
    }
  }

  test("gamma is 1 for attention nodes at the deepest level") {
    val sg = sourceGraph("er60")
    val g  = TestGraphs.all(spark).toMap.apply("er60")
    val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
    sg.attention(sg.L).keys.foreach { w => assert(gammas((sg.L, w)) == 1.0) }
  }

  test("gamma values are probabilities") {
    for (name <- Seq("toy", "pl80", "complete5")) {
      val g  = TestGraphs.all(spark).toMap.apply(name)
      val sg = sourceGraph(name)
      val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
      gammas.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
      assert(gammas.keySet == (1 to sg.L).flatMap(l => sg.attention(l).keys.map(w => (l, w))).toSet)
    }
  }

  test("residues are h * gamma") {
    val name = "toy"
    val g  = TestGraphs.all(spark).toMap.apply(name)
    val sg = sourceGraph(name)
    val hp = LastMeeting.hittingProbs(sg, c, g.local)
    val gm = LastMeeting.gammas(sg, hp)
    val rs = LastMeeting.residues(sg, c, g.local)
    rs.foreach { case ((l, w), r) =>
      assert(math.abs(r - sg.h(l)(w) * gm((l, w))) < 1e-12)
    }
    assert(rs.keySet == gm.keySet)
  }

  test("on the cycle, converging-path corrections vanish (single in-neighbor chains)") {
    // On a directed cycle each node has exactly one in-neighbor, so two
    // walks from w either both survive and stay together... they DO meet at
    // every subsequent attention step, making gamma < 1 for non-deepest
    // attention nodes whenever a deeper attention node exists directly
    // upstream: gamma = 1 - c (meet at next attention one step up) ... We
    // verify against the pair DP rather than a closed form, and sanity-check
    // that some gamma is strictly below 1.
    val sg = sourceGraph("cycle8")
    val g  = TestGraphs.all(spark).toMap.apply("cycle8")
    val gammas = LastMeeting.gammas(sg, LastMeeting.hittingProbs(sg, c, g.local))
    if (sg.L >= 2) {
      val shallow = gammas.collect { case ((l, _), v) if l < sg.L => v }
      assert(shallow.exists(_ < 1.0), "expected re-meeting corrections on the cycle")
    }
  }

  // --- Algorithm 3 at benchmark scale ---

  // pokec-lite (n = 1,600, m = 30k) at eps = 0.05 and the query nodes of
  // SimPushSpec's Theorem 1 test: every attention row, to every attention
  // target at the same or a deeper level, against the in-G_u DP.
  test("G_u hitting probabilities match the in-G_u DP on pokec-lite at eps=0.05") {
    val g = repro.eval.Datasets.standard(spark).find(_.name == "pokec-lite").get.graph
    val p = SimPushParams(0.05)
    for (u <- repro.eval.Datasets.queryNodes(g, 3)) {
      val sg = SourcePush.run(g, u, p.c, p.epsH, p.delta, p.maxWalks, p.seed)
      assert(sg.L >= 2 && sg.attentionCount > 1, s"u=$u: L=${sg.L}, ${sg.attentionCount} attention nodes")
      val hp = LastMeeting.hittingProbs(sg, p.c, g.local)
      for (l <- 1 to sg.L; w <- sg.attention(l).keys) {
        val dp      = TestRefs.guHittingDP(sg, p.c, l, w)
        val entries = hp(l)(w)
        assert(entries.keys.forall { case (lvl, wi) => lvl >= l && sg.attention(lvl).contains(wi) },
          s"u=$u: non-attention target from ($l,$w)")
        for (lvl <- l to sg.L; wi <- sg.attention(lvl).keys) {
          val got = entries.getOrElse((lvl, wi), 0.0); val want = dp.getOrElse((lvl, wi), 0.0)
          assert(math.abs(got - want) <= 1e-12, s"u=$u: h~ from ($l,$w) to ($lvl,$wi): $got vs $want")
        }
      }
    }
  }

  // --- the slot scratch of the sweep ---

  test("hittingProbs leaves the graph's slot scratch clean, even when it throws") {
    val g     = TestGraphs.all(spark).toMap.apply("pl80")
    val local = g.local
    val p     = SimPushParams(0.1)
    val Seq(sgA, sgB) = (0 until 80).filter(local.inDeg(_) > 0).iterator
      .map(u => SourcePush.run(g, u.toLong, c, p.epsH, delta, maxWalks = 60000, seed = 33))
      .filter(sg => sg.L >= 2 && sg.attention(2).nonEmpty).take(2).toSeq
    // A copy of the CSR with the same in-neighbor lists has its own scratch.
    def fresh() = repro.graph.LocalGraph.fromEdges(local.n,
      (0 until local.n).flatMap(v => local.inNeighbors(v).map(x => (x, v))))
    val aloneA = LastMeeting.hittingProbs(sgA, c, fresh())
    val aloneB = LastMeeting.hittingProbs(sgB, c, fresh())
    assert(aloneA != aloneB)
    assert(LastMeeting.hittingProbs(sgA, c, local) == aloneA)
    assert(LastMeeting.hittingProbs(sgB, c, local) == aloneB)
    // A G_u edge into a node outside [0, n) fails while level 1 is being built.
    val w2  = sgA.attention(2).keys.head
    val bad = sgA.copy(downEdges = sgA.downEdges.updated(1, sgA.downEdges(1) :+ ((w2, local.n.toLong))))
    intercept[ArrayIndexOutOfBoundsException](LastMeeting.hittingProbs(bad, c, local))
    assert(LastMeeting.hittingProbs(sgB, c, local) == aloneB)
    assert(LastMeeting.hittingProbs(sgA, c, local) == aloneA)
  }
}
