package repro.perfbench

import scala.collection.mutable

/** The result of one run: metrics by name and unit, free-text notes, and the
  * JSON line that ends the run's standard output.
  */
final case class Report(correct: Boolean, attempted: Int, failed: Int) {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private val notes   = mutable.ArrayBuffer.empty[String]

  def add(name: String, value: Double, unit: String): Unit = {
    require(Stats.validName(name), s"bad metric name '$name'")
    require(!metrics.contains(name), s"metric '$name' reported twice")
    require(java.lang.Double.isFinite(value), s"metric '$name' is $value")
    metrics(name) = (value, unit)
  }

  def note(line: String): Unit = notes += line

  def json: String = {
    val ms = metrics.map { case (k, (v, u)) =>
      s""""$k": {"value": ${Report.num(v)}, "unit": "$u"}"""
    }.mkString(", ")
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {$ms}}"""
  }

  def print(): Unit = {
    metrics.foreach { case (k, (v, u)) => println(f"  $k%-34s ${Report.num(v)}%s $u") }
    notes.foreach(n => println(s"  $n"))
    println(json)
  }
}

object Report {
  /** Every digit as measured; whole numbers without a fraction. */
  def num(v: Double): String =
    if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else java.math.BigDecimal.valueOf(v).toPlainString
}
