package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Path, Paths}

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.baselines.PrSim
import repro.core.{SimPush, SimPushParams}
import repro.eval.{Datasets, Metrics}
import repro.eval.Datasets.BenchDataset
import repro.jobs.Jobs

/** SimRank query benchmark: one run of one workload.
  *
  * `--workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>`
  *
  * A run sets up three times (SparkSession, `Datasets.extended`, `g.local`,
  * `g.warm()`, and the PRSim index where the workload has one) and keeps the
  * last, loads exact ground truth, runs the workload's untimed warm-up
  * queries, then either
  *  - (`--trace 0`) answers queries closed-loop with one client until
  *    `--seconds` have passed and reports the end-to-end metrics, or
  *  - (`--trace 1`) answers the workload's fixed number of traced queries,
  *    timing every layer from here, and reports the per-layer metrics.
  * Every answer is checked against the exact truth. The last stdout line is
  * the JSON result.
  */
object Main {

  val C          = 0.6 // SimRank decay of the truth, SimPushParams and PRSim
  val ExactIters = 25
  val K          = 50
  val SetupReps  = 3
  val QueryPool  = 256 // distinct query nodes drawn per run; a run cycles through them

  sealed trait Method
  final case class SimPushMethod(eps: Double) extends Method {
    def params: SimPushParams = SimPushParams(eps).ensuring(_.c == C, "truth and SimPush must share c")
  }
  final case class PrSimMethod(theta: Double) extends Method

  /** @param warmups       untimed queries before measuring (fixed per workload)
    * @param tracedQueries queries answered by a `--trace 1` run (fixed, so the
    *                      per-layer counts repeat exactly for a seed)
    */
  final case class Workload(name: String, dataset: String, method: Method, warmups: Int,
                            tracedQueries: Int)

  val workloads: Seq[Workload] = Seq(
    // Densest stand-in at the finest eps: deepest Source-Push (L=12), the
    // walk cap binding (2M of a 9.0M budget) and 100-200 attention nodes in
    // Last-Meeting.
    Workload("simpush-fine", "uk-lite", SimPushMethod(0.02), warmups = 1, tracedQueries = 2),
    // The index-based competitor: the only workload through repro.baselines
    // (PushOps, Eta), and the control on which SimPush-only changes must not move.
    Workload("prsim-indexed", "pokec-lite", PrSimMethod(0.01), warmups = 2, tracedQueries = 4),
  )

  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean, workDir: Path)

  def parse(args: Array[String]): Either[String, Opts] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    if (args.length % 2 != 0 || kv.size * 2 != args.length) return Left("arguments come as --key value pairs")
    for {
      name    <- need("workload")
      w       <- workloads.find(_.name == name).toRight(
                   s"unknown workload '$name' (known: ${workloads.map(_.name).mkString(", ")})")
      seed    <- need("seed").flatMap(s => s.toLongOption.toRight(s"--seed $s is not an integer"))
      seconds <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"--seconds $s is not a positive integer"))
      trace   <- need("trace").flatMap {
                   case "0" => Right(false); case "1" => Right(true)
                   case t   => Left(s"--trace $t is not 0 or 1")
                 }
      dir     <- need("work-dir")
    } yield Opts(w, seed, seconds, trace, Paths.get(dir))
  }

  def main(args: Array[String]): Unit = {
    val opts = parse(args) match {
      case Right(o) => o
      case Left(msg) => Console.err.println(s"perfbench: $msg"); sys.exit(2)
    }
    val code =
      try { run(opts); 0 }
      catch {
        case e: Traced.GuardFailure =>
          Console.err.println(s"perfbench: differential guard failed: ${e.getMessage}"); 3
      }
    sys.exit(code)
  }

  // ------------------------------------------------------------------
  // Set-up
  // ------------------------------------------------------------------

  final case class Setup(spark: SparkSession, ds: BenchDataset, index: Option[PrSim.Index],
                         seconds: Double, datasetsMs: Double, localMs: Double, warmMs: Double,
                         indexMs: Double)

  private def ms(t0: Long, t1: Long): Double = (t1 - t0) / 1e6

  def setUp(w: Workload): Setup = {
    val t0    = System.nanoTime()
    val spark = Jobs.session(s"perfbench-${w.name}")
    val t1    = System.nanoTime()
    val ds    = Datasets.extended(spark).find(_.name == w.dataset)
      .getOrElse(sys.error(s"dataset ${w.dataset} not in Datasets.extended"))
    val t2    = System.nanoTime()
    ds.graph.local
    val t3    = System.nanoTime()
    ds.graph.warm()
    val t4    = System.nanoTime()
    val index = w.method match {
      case PrSimMethod(theta) =>
        Some(PrSim.buildIndex(ds.graph, theta, C, math.sqrt(ds.graph.numNodes.toDouble).toInt))
      case _: SimPushMethod => None
    }
    val t5    = System.nanoTime()
    Setup(spark, ds, index, (t5 - t0) / 1e9, ms(t1, t2), ms(t2, t3), ms(t3, t4), ms(t4, t5))
  }

  /** Set up `SetupReps` times, stopping each session before the next, and
    * keep the last set-up for the queries.
    */
  def setUpRepeatedly(w: Workload): Seq[Setup] = {
    val done = mutable.ArrayBuffer.empty[Setup]
    while (done.size < SetupReps) {
      done.lastOption.foreach(_.spark.stop())
      done += setUp(w)
    }
    done.toSeq
  }

  def heapUsedMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  // ------------------------------------------------------------------
  // Queries
  // ------------------------------------------------------------------

  def answer(s: Setup, w: Workload, u: Long): Map[Long, Double] = w.method match {
    case m: SimPushMethod => SimPush.singleSource(s.ds.graph, u, m.params).scores
    case _: PrSimMethod   => PrSim.query(s.ds.graph, s.index.get, u, C)
  }

  /** The guarantees a workload's answers are held to: SimPush's Theorem 1 and
    * `s~ <= s` at its eps; PRSim has none, so only non-finite scores count.
    */
  def guaranteeEps(w: Workload): Option[Double] = w.method match {
    case m: SimPushMethod => Some(m.eps)
    case _: PrSimMethod   => None
  }

  final case class QueryRecord(ms: Double, outcome: Stats.Outcome, maxUnder: Double, err: Double,
                               prec: Double)

  def evaluate(w: Workload, truth: Array[Array[Double]], u: Long, ms: Double,
               est: Either[Throwable, Map[Long, Double]]): QueryRecord = est match {
    case Left(e) =>
      Console.err.println(s"perfbench: query u=$u threw $e")
      QueryRecord(ms, Stats.Outcome(threw = true, violations = 0), Double.NaN, Double.NaN, Double.NaN)
    case Right(scores) =>
      val row = truth(u.toInt)
      val chk = Stats.check(row, scores, guaranteeEps(w))
      if (chk.violations > 0)
        Console.err.println(s"perfbench: query u=$u broke a guarantee at ${chk.violations} node(s)")
      QueryRecord(ms, Stats.Outcome(threw = false, chk.violations), chk.maxUnder,
        Metrics.avgErrorAtK(row, scores, u.toInt, K), Metrics.precisionAtK(row, scores, u.toInt, K))
  }

  def timed[A](body: => A): (Either[Throwable, A], Double) = {
    val t0 = System.nanoTime()
    val r  = try Right(body) catch { case NonFatal(e) => Left(e) }
    (r, (System.nanoTime() - t0) / 1e6)
  }

  // ------------------------------------------------------------------
  // A run
  // ------------------------------------------------------------------

  def run(o: Opts): Unit = {
    val w      = o.workload
    val setups = setUpRepeatedly(w)
    val s      = setups.last
    s.spark.sparkContext.setLogLevel("ERROR")
    val heapMb = heapUsedMb()
    val g      = s.ds.graph
    val truth  = Truth.load(o.workDir.resolve("truth"), s.ds.name, g.local, C, ExactIters)
    val nodes  = Datasets.queryNodes(g, QueryPool, o.seed).toIndexedSeq
    def node(i: Int): Long = nodes(i % nodes.size)

    (0 until w.warmups).foreach(i => timed(answer(s, w, node(i))))

    val setupS = Stats.median(setups.map(_.seconds))
    println(f"perfbench ${w.name} seed=${o.seed} trace=${if (o.trace) 1 else 0}: ${s.ds.name} " +
      f"(n=${g.numNodes}, m=${g.numEdges}), ${w.method}, ${w.warmups} warm-up queries, " +
      s"truth ${if (truth.computed) "computed" else "read back"} in ${truth.millis.round} ms")

    val result =
      if (o.trace) Traced.run(o, s, setups, truth, (0 until w.tracedQueries).map(i => node(w.warmups + i)))
      else endToEnd(o, s, truth.matrix, setupS, heapMb, i => node(w.warmups + i))
    s.spark.stop()
    result.print()
  }

  /** Closed loop, one client: the next query starts when the last one ends,
    * until `--seconds` have passed (at least one query).
    */
  def endToEnd(o: Opts, s: Setup, truth: Array[Array[Double]], setupS: Double, heapMb: Double,
               node: Int => Long): Report = {
    val w        = o.workload
    val recs     = mutable.ArrayBuffer.empty[QueryRecord]
    val t0       = System.nanoTime()
    val deadline = t0 + o.seconds * 1000000000L
    while (recs.isEmpty || System.nanoTime() < deadline) {
      val u         = node(recs.size)
      val (est, qm) = timed(answer(s, w, u))
      recs += evaluate(w, truth, u, qm, est)
      val r = recs.last
      Console.err.println(f"perfbench: query u=$u%d ${r.ms}%.1f ms err@50=${r.err}%.3g " +
        f"prec@50=${r.prec}%.3f max_under=${r.maxUnder}%.3g")
    }
    val wallS = (System.nanoTime() - t0) / 1e9
    val ok    = recs.filterNot(_.outcome.failed).toSeq
    val base  = if (ok.nonEmpty) ok else recs.toSeq
    val failed = Stats.failedCount(recs.map(_.outcome).toSeq)
    val report = Report(failed == 0, recs.size, failed)
    report.add("query_p50_ms", Stats.median(base.map(_.ms)), "ms")
    report.add("setup_s", setupS, "s")
    report.add("setup_heap_mb", heapMb, "MB")
    // Accuracy depends on the query node, and a run holds only a handful of
    // SimPush queries: medians over queries keep one hard node from swinging it.
    report.add("avg_err_at_50", Stats.median(base.map(_.err)), "score")
    report.add("prec_at_50", Stats.median(base.map(_.prec)), "fraction")
    report.add("max_underestimate", Stats.median(base.map(_.maxUnder)), "score")
    // With one client this is 1/mean latency: printed, not gated, because the
    // mean follows single slow queries and swings more than the median.
    report.note(s"qps = ${ok.size / wallS} 1/s (${ok.size} correct queries in $wallS s)")
    report.note(f"failed_frac = ${failed.toDouble / recs.size}%.4f ($failed of ${recs.size} attempted)")
    report.note(s"worst underestimate over all timed queries and nodes = ${base.map(_.maxUnder).max}" +
      guaranteeEps(w).fold("")(e => s" (eps = $e)"))
    report.note(Stats.tail(base.map(_.ms)) match {
      case Some((p, v)) => f"query_tail_ms = $v%.1f ms (p$p of ${base.size} timed queries)"
      case None => s"query_tail_ms undefined: ${base.size} timed queries, the rule needs at least 11"
    })
    report
  }
}
