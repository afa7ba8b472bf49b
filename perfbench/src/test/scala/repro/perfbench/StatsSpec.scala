package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("tail: the highest percentile with at least ten samples above it") {
    assert(Stats.tail(Seq.empty) === None)
    assert(Stats.tail((1 to 10).map(_.toDouble)) === None)
    assert(Stats.tail((1 to 11).map(_.toDouble)) === Some((9, 1.0)))
    assert(Stats.tail((1 to 20).map(_.toDouble)) === Some((50, 10.0)))
    val xs = scala.util.Random.shuffle((1 to 110).map(_.toDouble))
    val Some((p, v)) = Stats.tail(xs)
    assert(p === 90 && v === 100.0)
    assert(xs.count(_ > v) === 10)
    assert(Stats.tail((1 to 30).map(_.toDouble), minAbove = 3) === Some((90, 27.0)))
  }

  test("median and mean") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) === 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) === 2.5)
    assert(Stats.mean(Seq(1.0, 2.0, 6.0)) === 3.0)
  }

  test("failure counting: an exception and a guarantee violation each count once per query") {
    import Stats.Outcome
    assert(Stats.failedCount(Seq(Outcome(threw = false, violations = 0))) === 0)
    assert(Stats.failedCount(Seq(Outcome(threw = true, violations = 0))) === 1)
    assert(Stats.failedCount(Seq(Outcome(threw = false, violations = 7))) === 1)
    assert(Stats.failedCount(Seq(Outcome(threw = true, violations = 2))) === 1)
    assert(Stats.failedCount(Seq(Outcome(true, 0), Outcome(false, 3), Outcome(false, 0))) === 2)
  }

  test("guarantee check: Theorem 1, no overestimate, finite scores") {
    val truth = Array(1.0, 0.30, 0.10, 0.05)
    val good  = Stats.check(truth, Map(0L -> 1.0, 1L -> 0.29, 2L -> 0.095), Some(0.06))
    assert(good.violations === 0)
    assert(math.abs(good.maxUnder - 0.05) < 1e-12) // node 3 is absent: s~ = 0
    // node 1 underestimated by more than eps, node 2 overestimated
    val bad = Stats.check(truth, Map(0L -> 1.0, 1L -> 0.20, 2L -> 0.11), Some(0.06))
    assert(bad.violations === 2)
    assert(Stats.failedCount(Seq(Stats.Outcome(threw = false, bad.violations))) === 1)
    // without a guarantee only non-finite scores count
    assert(Stats.check(truth, Map(1L -> 0.9), None).violations === 0)
    assert(Stats.check(truth, Map(1L -> Double.NaN, 2L -> Double.PositiveInfinity), None).violations === 2)
  }

  test("metric names match [A-Za-z0-9][A-Za-z0-9_.-]*, at most 64 characters") {
    Seq("query_p50_ms", "spark.task_busy_ms", "walks.budget_ratio", "setup_s", "1x", "a-b")
      .foreach(n => assert(Stats.validName(n), n))
    Seq("", "_x", ".x", "a b", "a/b", "é", "x" * 65).foreach(n => assert(!Stats.validName(n), n))
    assert(Stats.validName("x" * 64))
  }

  test("report rejects a bad metric name") {
    val r = Report(correct = true, attempted = 1, failed = 0)
    assertThrows[IllegalArgumentException](r.add("bad name", 1.0, "ms"))
    r.add("ok", 1.5, "ms")
    assert(r.json === """{"correct": true, "attempted": 1, "failed": 0, "metrics": {"ok": {"value": 1.5, "unit": "ms"}}}""")
  }
}
