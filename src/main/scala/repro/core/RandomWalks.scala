package repro.core

import java.util.SplittableRandom

import org.apache.spark.sql.DataFrame
import repro.graph.Graph

/** Batched \sqrt{c}-walk simulation over the graph's CSR broadcast
  * ([[Graph.localBroadcast]]). Walk `id` draws from
  * `SplittableRandom(mix(seed, id))` and takes its steps through
  * [[repro.graph.LocalGraph.walk]], so every walk, and every statistic over
  * a set of walks, is the same however the ids are split into tasks.
  */
object RandomWalks {

  /** SplitMix64 finalizer — decorrelates per-walk seeds. */
  def mix(seed: Long, id: Long): Long = {
    var z = seed + id * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Simulate `numWalks` \sqrt{c}-walks from `start`, one row per visit.
    * @return DataFrame `(walkId Long, step Int, node Long)` including step 0.
    */
  def sqrtCWalks(g: Graph, start: Long, numWalks: Long, c: Double,
                 maxSteps: Int, seed: Long): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val bc = g.localBroadcast
    val s  = start.toInt
    spark.range(numWalks).as[Long].flatMap { id =>
      val rng  = new SplittableRandom(mix(seed, id))
      val walk = bc.value.sqrtCWalk(s, c, maxSteps, rng)
      walk.iterator.zipWithIndex.map { case (node, step) => (id, step, node.toLong) }.toSeq
    }.toDF("walkId", "step", "node")
  }

  /** Visit counts `H^{(l)}(u, v)` over `numWalks` walks from `start` — the
    * statistic Source-Push picks the max level L from (Algorithm 2, lines
    * 1-8) — as a dense array: entry `step * n + node`, steps 0..maxSteps.
    *
    * One Spark job with no shuffle: each of `numSlices` tasks counts its
    * walk ids into an array of its own, and the task arrays are summed on
    * the driver. Each task, and the driver, holds `(maxSteps + 1) * n * 4`
    * bytes of counts (300 KB for 25 levels of 3,000 nodes).
    */
  def countVisits(g: Graph, start: Long, numWalks: Long, c: Double, maxSteps: Int,
                  seed: Long, numSlices: Int): Array[Int] = {
    val n = g.local.n
    require(maxSteps >= 0, s"maxSteps must be >= 0, got $maxSteps")
    require((maxSteps.toLong + 1) * n <= Int.MaxValue,
      s"visit counts for ${maxSteps.toLong + 1} steps x $n nodes exceed ${Int.MaxValue} array entries")
    require(numWalks <= Int.MaxValue, s"$numWalks walks could overflow an Int visit count")
    val bc   = g.localBroadcast
    val s    = start.toInt
    val size = (maxSteps + 1) * n
    g.spark.sparkContext.range(0, numWalks, 1, numSlices).mapPartitions { ids =>
      val lg     = bc.value
      val counts = new Array[Int](size)
      ids.foreach(id => lg.walk(s, c, maxSteps, new SplittableRandom(mix(seed, id)))((step, v) =>
        counts(step * n + v) += 1))
      Iterator.single(counts)
    }.reduce { (a, b) =>
      var i = 0
      while (i < a.length) { a(i) += b(i); i += 1 }
      a
    }
  }

  /** [[countVisits]] with one task per default-parallelism slot. */
  def countVisits(g: Graph, start: Long, numWalks: Long, c: Double, maxSteps: Int,
                  seed: Long): Array[Int] =
    countVisits(g, start, numWalks, c, maxSteps, seed, g.spark.sparkContext.defaultParallelism)

  /** [[countVisits]] as a DataFrame `(step Int, node Long, visits Long)`,
    * one row per (step, node) visited at least once.
    */
  def visitCounts(g: Graph, start: Long, numWalks: Long, c: Double,
                  maxSteps: Int, seed: Long): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val n      = g.local.n
    val counts = countVisits(g, start, numWalks, c, maxSteps, seed)
    counts.indices.filter(counts(_) > 0)
      .map(i => (i / n, (i % n).toLong, counts(i).toLong))
      .toDF("step", "node", "visits")
  }
}
