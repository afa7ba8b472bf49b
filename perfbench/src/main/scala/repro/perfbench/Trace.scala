package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

/** One timed call into a layer. `parent` is the id of the span that caused
  * it, or -1; spans of one query share `query`.
  */
final case class Span(id: Int, parent: Int, query: Int, name: String, startNs: Long, endNs: Long) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder for the single-threaded traced run. Spans opened
  * inside another span's body get it as their parent.
  */
final class Tracer {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open  = List.empty[Int]

  def span[A](query: Int, name: String)(body: => A): A = {
    val id     = spans.size
    val parent = open.headOption.getOrElse(-1)
    spans += Span(id, parent, query, name, 0L, 0L) // reserve the id
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      spans(id) = Span(id, parent, query, name, t0, System.nanoTime())
      open = open.tail
    }
  }

  def all: Seq[Span] = spans.toSeq
}

object Tracer {

  /** Self time of every span: its duration minus the part of its interval
    * that its children cover (overlapping children are counted once).
    */
  def selfTimes(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.filter(_.parent >= 0).groupBy(_.parent)
    spans.map { s =>
      val covered = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
        .foldLeft((0L, Long.MinValue)) { case ((sum, reach), (a, b)) =>
          if (b <= reach) (sum, reach)
          else (sum + b - math.max(a, reach), b)
        }._1
      s.id -> (s.durationNs - covered)
    }.toMap
  }
}

/** Spark work per tag. The benchmark sets the tag as a local property on the
  * thread that calls into a layer, so every job that call submits — and every
  * task of those jobs — is charged to it.
  */
final class SparkCounters extends SparkListener {
  import SparkCounters._

  final class Counts {
    val jobs, tasks, shuffleWriteBytes, taskBusyMs = new AtomicLong
  }

  private val stageTag = new ConcurrentHashMap[Int, String]
  private val byTag    = new ConcurrentHashMap[String, Counts]
  private val started, ended = new AtomicLong

  private def counts(tag: String): Counts = byTag.computeIfAbsent(tag, _ => new Counts)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    started.incrementAndGet()
    Option(e.properties).flatMap(p => Option(p.getProperty(TagKey))).foreach { tag =>
      counts(tag).jobs.incrementAndGet()
      e.stageIds.foreach(stageTag.put(_, tag))
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = { ended.incrementAndGet(); () }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageTag.get(e.stageId)).foreach { tag =>
      val c = counts(tag)
      c.tasks.incrementAndGet()
      Option(e.taskMetrics).foreach { m =>
        c.taskBusyMs.addAndGet(m.executorRunTime)
        c.shuffleWriteBytes.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      }
    }

  /** Wait until the listener bus has delivered the end of every started job. */
  def drain(timeoutMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    var quiet = 0
    while (quiet < 3 && System.currentTimeMillis() < deadline) {
      if (started.get() == ended.get()) quiet += 1 else quiet = 0
      Thread.sleep(50)
    }
  }

  /** `(jobs, tasks, shuffleWriteBytes, taskBusyMs)` summed over the tags that `keep` accepts. */
  def total(keep: String => Boolean): (Long, Long, Long, Long) =
    byTag.asScala.iterator.filter { case (t, _) => keep(t) }.map(_._2)
      .foldLeft((0L, 0L, 0L, 0L)) { case ((j, t, b, ms), c) =>
        (j + c.jobs.get, t + c.tasks.get, b + c.shuffleWriteBytes.get, ms + c.taskBusyMs.get)
      }
}

object SparkCounters {
  val TagKey = "perfbench.tag"

  def tagged[A](sc: SparkContext, tag: String)(body: => A): A = {
    sc.setLocalProperty(TagKey, tag)
    try body
    finally sc.setLocalProperty(TagKey, null)
  }
}
