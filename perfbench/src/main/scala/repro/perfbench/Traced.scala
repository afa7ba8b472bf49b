package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.sql.functions.{col, max}

import repro.baselines.{PrSim, PushOps}
import repro.core.{LastMeeting, RandomWalks, ReversePush, SimPush, SimPushParams, SimPushResult, SourceGraph, SourcePush}
import repro.perfbench.Main._

/** The traced run. Each query is answered twice: once through the public
  * entry point (the reference, with no spans), and once stage by stage from
  * here, with a span around every call into a layer and the Spark work it
  * submits charged to that layer. For SimPush the stage-by-stage replay must
  * match the reference exactly (the differential guard), so the per-layer
  * numbers describe the program the end-to-end run timed.
  *
  * Probes that measure something the query itself does not expose run after
  * the query span, never inside it: the walk phase on its own (which
  * `SourcePush.run` does internally), an exhaustive Reverse-Push for the mass
  * the `sqrt(c) r >= eps_h` test prunes, and PRSim's forward push.
  */
object Traced {

  final class GuardFailure(msg: String) extends RuntimeException(msg)

  /** Every per-layer metric, in report order. A layer the workload does not
    * run reports 0.
    */
  val PerLayer: Seq[(String, String)] = Seq(
    "graph.datasets_ms" -> "ms", "graph.local_ms" -> "ms", "graph.warm_ms" -> "ms",
    "walks.ms" -> "ms", "walks.count" -> "count", "walks.budget_ratio" -> "ratio",
    "source_push.ms" -> "ms", "source_push.levels" -> "count", "source_push.lstar" -> "count",
    "source_push.attention" -> "count", "source_push.gu_edges" -> "count",
    "source_push.gu_level_nodes" -> "count", "source_push.spark_jobs" -> "count",
    "last_meeting.hitting_ms" -> "ms", "last_meeting.gamma_ms" -> "ms",
    "last_meeting.hp_entries" -> "count",
    "reverse_push.ms" -> "ms", "reverse_push.spark_jobs" -> "count",
    "reverse_push.seed_mass" -> "score", "reverse_push.output_nnz" -> "count",
    "reverse_push.pruned_mass" -> "score",
    "spark.jobs" -> "count", "spark.tasks" -> "count", "spark.shuffle_write_bytes" -> "bytes",
    "spark.task_busy_ms" -> "ms",
    "jvm.gc_ms" -> "ms",
    "prsim.index_build_ms" -> "ms", "prsim.index_rows" -> "count",
    "prsim.online_seeds" -> "count", "push_ops.forward_ms" -> "ms",
    "exact_simrank.ms" -> "ms",
    "trace.query_ms" -> "ms", "trace.overhead_ms" -> "ms", "trace.stage_share" -> "ratio",
  )

  private val SimPushStages = Seq("source_push", "last_meeting.hitting", "last_meeting.gamma", "reverse_push")

  /** SimPush's stages as `SimPush.singleSource` runs them, one span each. */
  final case class Replay(sg: SourceGraph, hpEntries: Long, residues: Map[(Int, Long), Double],
                          scores: Map[Long, Double])

  def replay(s: Setup, u: Long, p: SimPushParams, q: Int, tracer: Tracer): Replay = {
    val g  = s.ds.graph
    val sc = s.spark.sparkContext
    val sg = tracer.span(q, "source_push")(SparkCounters.tagged(sc, s"$q/source_push")(
      SourcePush.run(g, u, p.c, p.epsH, p.delta, p.maxWalks, p.seed)))
    val (hpEntries, res, scores) =
      if (sg.L == 0 || sg.attentionCount == 0) (0L, Map.empty[(Int, Long), Double], Map.empty[Long, Double])
      else {
        val hp  = tracer.span(q, "last_meeting.hitting")(LastMeeting.hittingProbs(sg, p.c, g.local))
        val gm  = tracer.span(q, "last_meeting.gamma")(LastMeeting.gammas(sg, hp))
        val res = gm.map { case ((l, w), gamma) => (l, w) -> sg.h(l)(w) * gamma }
        val sc0 = tracer.span(q, "reverse_push")(SparkCounters.tagged(sc, s"$q/reverse_push")(
          ReversePush.run(g, res, sg.L, p.c, p.epsH)))
        (hp.map(_.valuesIterator.map(_.size.toLong).sum).sum, res, sc0)
      }
    Replay(sg, hpEntries, res, scores - u + (u -> 1.0))
  }

  /** The walk phase of `SourcePush.run` on its own, with its exact arguments:
    * returns the number of walks sampled.
    */
  def walkPhase(s: Setup, u: Long, p: SimPushParams): Long = {
    val numWalks  = math.max(1000L, math.min(p.maxWalks, SourcePush.walkBudget(p.epsH, p.c, p.delta)))
    val threshold = (p.epsH / 2.0) * numWalks
    RandomWalks.visitCounts(s.ds.graph, u, numWalks, p.c, p.lStar, p.seed)
      .where(col("step") >= 1 && col("visits") >= threshold)
      .agg(max("step"))
      .collect()
    numWalks
  }

  def guard(u: Long, ref: SimPushResult, rep: Replay, probeWalks: Long): Unit = {
    def fail(what: String) = throw new GuardFailure(s"query u=$u: $what")
    if (ref.L != rep.sg.L) fail(s"L ${rep.sg.L} in the replay, ${ref.L} from SimPush.singleSource")
    if (ref.attentionCount != rep.sg.attentionCount)
      fail(s"${rep.sg.attentionCount} attention nodes in the replay, ${ref.attentionCount} from SimPush.singleSource")
    val worst = (ref.scores.keySet ++ rep.scores.keySet).iterator
      .map(v => math.abs(ref.scores.getOrElse(v, 0.0) - rep.scores.getOrElse(v, 0.0)))
      .foldLeft(0.0)(math.max)
    if (!(worst <= 1e-12)) fail(s"scores differ by $worst")
    if (probeWalks != rep.sg.numWalks) fail(s"walk probe sampled $probeWalks walks, SourcePush ${rep.sg.numWalks}")
  }

  private def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  def run(o: Opts, s: Setup, setups: Seq[Setup], truth: Truth.Loaded, queries: Seq[Long]): Report = {
    val w        = o.workload
    val g        = s.ds.graph
    val sc       = s.spark.sparkContext
    val counters = new SparkCounters
    sc.addSparkListener(counters)
    val tracer   = new Tracer
    val recs     = mutable.ArrayBuffer.empty[QueryRecord]
    val refMs    = mutable.ArrayBuffer.empty[Double]
    val counts   = mutable.ArrayBuffer.empty[Map[String, Double]] // per query

    queries.zipWithIndex.foreach { case (u, q) =>
      w.method match {
        case m: SimPushMethod =>
          val p = m.params
          val (ref, rm) = timed(SparkCounters.tagged(sc, s"$q/reference")(SimPush.singleSource(g, u, p)))
          refMs += rm
          val gc0       = gcMillis()
          val rep       = tracer.span(q, "query")(replay(s, u, p, q, tracer))
          val gcMs      = gcMillis() - gc0
          val walks     = tracer.span(q, "walks")(SparkCounters.tagged(sc, s"$q/probe")(walkPhase(s, u, p)))
          val exhaustive = tracer.span(q, "reverse_push.exhaustive")(SparkCounters.tagged(sc, s"$q/probe")(
            if (rep.residues.isEmpty) Map.empty[Long, Double] else ReversePush.run(g, rep.residues, rep.sg.L, p.c, 0.0)))
          guard(u, ref.fold(e => throw e, identity), rep, walks)
          val pushed = rep.scores - u
          counts += Map(
            "walks.count" -> rep.sg.numWalks.toDouble,
            "walks.budget_ratio" -> rep.sg.numWalks.toDouble / SourcePush.walkBudget(p.epsH, p.c, p.delta),
            "source_push.levels" -> rep.sg.L.toDouble,
            "source_push.lstar" -> p.lStar.toDouble,
            "source_push.attention" -> rep.sg.attentionCount.toDouble,
            "source_push.gu_edges" -> rep.sg.numEdges.toDouble,
            "source_push.gu_level_nodes" -> rep.sg.numLevelNodes.toDouble,
            "last_meeting.hp_entries" -> rep.hpEntries.toDouble,
            "reverse_push.seed_mass" -> rep.residues.values.sum,
            "reverse_push.output_nnz" -> pushed.size.toDouble,
            "reverse_push.pruned_mass" -> ((exhaustive - u).values.sum - pushed.values.sum),
            "jvm.gc_ms" -> gcMs.toDouble,
          )
          recs += evaluate(w, truth.matrix, u, spanMs(tracer, q, "query"), Right(rep.scores))

        case PrSimMethod(_) =>
          val idx = s.index.get
          val (_, rm) = timed(SparkCounters.tagged(sc, s"$q/reference")(PrSim.query(g, idx, u, C)))
          refMs += rm
          val gc0    = gcMillis()
          val scores = tracer.span(q, "query")(SparkCounters.tagged(sc, s"$q/query")(PrSim.query(g, idx, u, C)))
          val gcMs   = gcMillis() - gc0
          val front  = tracer.span(q, "push_ops.forward")(SparkCounters.tagged(sc, s"$q/probe")(
            PushOps.forwardPush(g, u, C, idx.maxLevel, idx.theta)))
          val online = (for {
            (hm, l) <- front.zipWithIndex if l >= 1
            (v, h)  <- hm if h >= idx.theta && !idx.hubs.contains(v)
          } yield v).distinct.size
          counts += Map("prsim.online_seeds" -> online.toDouble, "jvm.gc_ms" -> gcMs.toDouble)
          recs += evaluate(w, truth.matrix, u, spanMs(tracer, q, "query"), Right(scores))
      }
    }
    counters.drain()

    val spans   = tracer.all
    val self    = Tracer.selfTimes(spans)
    val qs      = queries.indices
    def dur(q: Int, name: String): Double = spanMs(tracer, q, name)
    def selfMs(q: Int, name: String): Double =
      spans.find(sp => sp.query == q && sp.name == name).map(sp => self(sp.id) / 1e6).getOrElse(0.0)
    def medianOver(f: Int => Double): Double = Stats.median(qs.map(f))
    def meanCount(k: String): Double = Stats.mean(qs.map(q => counts(q).getOrElse(k, 0.0)))
    def sparkPerQuery(pick: ((Long, Long, Long, Long)) => Long, stages: String*): Double =
      Stats.mean(qs.map(q => pick(counters.total(t => stages.exists(st => t == s"$q/$st"))).toDouble))

    val out = mutable.Map.empty[String, Double]
    out("graph.datasets_ms") = Stats.median(setups.map(_.datasetsMs))
    out("graph.local_ms")    = Stats.median(setups.map(_.localMs))
    out("graph.warm_ms")     = Stats.median(setups.map(_.warmMs))
    out("exact_simrank.ms")  = truth.millis
    out("trace.query_ms")    = medianOver(dur(_, "query"))
    out("trace.overhead_ms") = out("trace.query_ms") - Stats.median(refMs.toSeq)
    Seq("walks.count", "walks.budget_ratio", "source_push.levels", "source_push.lstar",
      "source_push.attention", "source_push.gu_edges", "source_push.gu_level_nodes",
      "last_meeting.hp_entries", "reverse_push.seed_mass", "reverse_push.output_nnz",
      "reverse_push.pruned_mass", "jvm.gc_ms", "prsim.online_seeds").foreach(k => out(k) = meanCount(k))
    val queryStages = w.method match {
      case _: SimPushMethod =>
        out("walks.ms")                = medianOver(dur(_, "walks"))
        // Derived: SourcePush.run samples the walks itself, so its own share is
        // its span minus the separately timed walk phase.
        out("source_push.ms")          = medianOver(q => selfMs(q, "source_push") - dur(q, "walks"))
        out("last_meeting.hitting_ms") = medianOver(selfMs(_, "last_meeting.hitting"))
        out("last_meeting.gamma_ms")   = medianOver(selfMs(_, "last_meeting.gamma"))
        out("reverse_push.ms")         = medianOver(selfMs(_, "reverse_push"))
        out("source_push.spark_jobs")  = sparkPerQuery(_._1, "source_push")
        out("reverse_push.spark_jobs") = sparkPerQuery(_._1, "reverse_push")
        out("trace.stage_share")       = Stats.mean(qs.map(q =>
          SimPushStages.map(selfMs(q, _)).sum / dur(q, "query")))
        Seq("source_push", "reverse_push")
      case _: PrSimMethod =>
        out("prsim.index_build_ms") = Stats.median(setups.map(_.indexMs))
        out("prsim.index_rows")     = s.index.get.rows.toDouble
        out("push_ops.forward_ms")  = medianOver(dur(_, "push_ops.forward"))
        Seq("query")
    }
    out("spark.jobs")                = sparkPerQuery(_._1, queryStages: _*)
    out("spark.tasks")               = sparkPerQuery(_._2, queryStages: _*)
    out("spark.shuffle_write_bytes") = sparkPerQuery(_._3, queryStages: _*)
    out("spark.task_busy_ms")        = sparkPerQuery(_._4, queryStages: _*)

    writeTrace(o, spans, counts.toSeq)
    val failed = Stats.failedCount(recs.map(_.outcome).toSeq)
    val report = Report(failed == 0, recs.size, failed)
    PerLayer.foreach { case (name, unit) => report.add(name, out.getOrElse(name, 0.0), unit) }
    report.note(s"${queries.size} traced queries" + (w.method match {
      case _: SimPushMethod => "; the differential guard passed on every replay"
      case _: PrSimMethod   => ""
    }))
    report
  }

  private def spanMs(t: Tracer, q: Int, name: String): Double =
    t.all.find(sp => sp.query == q && sp.name == name).map(_.durationNs / 1e6).getOrElse(0.0)

  /** Spans and per-query counts, written when the run ends. */
  private def writeTrace(o: Opts, spans: Seq[Span], counts: Seq[Map[String, Double]]): Unit = {
    val dir = o.workDir.resolve("traces")
    Files.createDirectories(dir)
    val spanJson = spans.map(sp =>
      s"""{"id": ${sp.id}, "parent": ${sp.parent}, "query": ${sp.query}, "name": "${sp.name}", """ +
      s""""start_ns": ${sp.startNs}, "end_ns": ${sp.endNs}}""").mkString(",\n  ")
    val countJson = counts.map(_.toSeq.sortBy(_._1).map { case (k, v) => s""""$k": ${Report.num(v)}""" }
      .mkString("{", ", ", "}")).mkString(",\n  ")
    val file = dir.resolve(s"${o.workload.name}-seed${o.seed}.json")
    Files.write(file, s"""{"workload": "${o.workload.name}", "seed": ${o.seed},
      |"spans": [
      |  $spanJson],
      |"counts": [
      |  $countJson]}
      |""".stripMargin.getBytes(StandardCharsets.UTF_8))
    println(s"perfbench: trace written to $file")
  }
}
