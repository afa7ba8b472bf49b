package repro.baselines

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{Frontier, Graph}

/** Level-wise push primitives shared by the baseline methods, both over the
  * CSR kernel [[repro.graph.LocalGraph.push]].
  *
  * Conventions match the paper: `h^{(l)}(v, w)` is the probability that a
  * \sqrt{c}-walk from `v` is at `w` after `l` steps. A *forward* push from
  * `u` flows along in-edges (walk direction) and yields `h^{(l)}(u, .)`;
  * a *reverse* expansion from a seed `w` flows along out-edges and yields
  * `h^{(l)}(., w)`.
  */
object PushOps {

  /** Forward push from `u` on the driver: levels 0..maxLevel of
    * `h^{(l)}(u, .)`. Entries with `h < prune` are kept in the output but
    * not pushed (prune = 0 gives the exact exhaustive propagation).
    */
  def forwardPush(g: Graph, u: Long, c: Double, maxLevel: Int,
                  prune: Double): IndexedSeq[Map[Long, Double]] = {
    val lg    = g.local
    val sqrtC = math.sqrt(c)
    val out   = ArrayBuffer(Map(u -> 1.0))
    while (out.size <= maxLevel && out.last.nonEmpty) {
      val pushers = out.last.filter(_._2 >= prune)
      out += lg.push(Frontier(pushers), sqrtC, reverse = false).toMap
    }
    out.toIndexedSeq
  }

  /** Multi-seed reverse expansion: given seeds `(key, node)` each carrying
    * mass 1 at level 0, returns `(key, level, node, h)` for levels
    * 0..maxLevel where `h = h^{(level)}(node, seed(key))`. Entries below
    * `prune` are dropped after each level (SLING-style truncation).
    *
    * One Spark job fans the seeds out over the broadcast CSR graph; each
    * seed's levels are pushed within its task.
    */
  def reverseExpand(g: Graph, seeds: DataFrame, c: Double, maxLevel: Int,
                    prune: Double): DataFrame = {
    val spark = g.spark
    import spark.implicits._
    val bc    = g.localBroadcast
    val sqrtC = math.sqrt(c)
    seeds.select(col("key").cast("long"), col("node").cast("long")).as[(Long, Long)]
      .flatMap { case (key, node) =>
        val rows  = ArrayBuffer((key, 0, node, 1.0))
        var front = Frontier.single(node.toInt)
        var l     = 0
        while (l < maxLevel && !front.isEmpty) {
          l += 1
          front = bc.value.push(front, sqrtC, reverse = true).filter((_, h) => h >= prune)
          front.nodes.indices.foreach(i => rows += ((key, l, front.nodes(i).toLong, front.mass(i))))
        }
        rows
      }
      .toDF("key", "level", "node", "h")
  }
}
