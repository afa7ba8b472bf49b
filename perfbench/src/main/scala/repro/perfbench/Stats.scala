package repro.perfbench

/** Pure helpers behind the benchmark's report: order statistics, the tail
  * rule, the metric-name rule and per-query failure accounting. Kept free of
  * Spark so the self-tests can pin them down directly.
  */
object Stats {

  /** Median (mean of the two middle values for an even count). */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.size
  }

  /** The highest percentile that still has at least `minAbove` samples above
    * it, as `(percentile, value)`: the sample at nearest rank `n - minAbove`.
    * `None` when there are not more than `minAbove` samples.
    */
  def tail(xs: Seq[Double], minAbove: Int = 10): Option[(Int, Double)] = {
    val s = xs.sorted
    val n = s.size
    if (n <= minAbove) None
    else {
      val rank = n - minAbove // 1-based nearest rank; `minAbove` samples follow it
      Some((100 * rank / n, s(rank - 1)))
    }
  }

  private val NamePattern = "[A-Za-z0-9][A-Za-z0-9_.-]{0,63}".r

  /** Metric and workload names: a letter or digit, then letters, digits,
    * `_`, `.` or `-`, at most 64 in all.
    */
  def validName(name: String): Boolean = NamePattern.matches(name)

  /** What happened to one query: whether it threw, and how many of its scores
    * broke a guarantee. A query fails once, however many checks it broke.
    */
  final case class Outcome(threw: Boolean, violations: Int) {
    def failed: Boolean = threw || violations > 0
  }

  def failedCount(outcomes: Seq[Outcome]): Int = outcomes.count(_.failed)

  /** Accuracy of one answer against the exact row `truth = s(u, .)`.
    *
    * @param maxUnder    `max_v s(u,v) - s~(u,v)` (Theorem 1's quantity)
    * @param violations  scores that are not finite, plus — when `eps` is given —
    *                    nodes with `s - s~ > eps` or `s~ > s + 1e-9`
    */
  final case class Check(maxUnder: Double, violations: Int)

  val OverestimateSlack = 1e-9

  def check(truth: Array[Double], est: Map[Long, Double], eps: Option[Double]): Check = {
    var maxUnder   = Double.NegativeInfinity
    var violations = est.valuesIterator.count(s => !java.lang.Double.isFinite(s))
    var v = 0
    while (v < truth.length) {
      val s     = est.getOrElse(v.toLong, 0.0)
      val under = truth(v) - s
      if (under > maxUnder) maxUnder = under
      eps.foreach { e =>
        if (under > e || s > truth(v) + OverestimateSlack) violations += 1
      }
      v += 1
    }
    Check(maxUnder, violations)
  }
}
