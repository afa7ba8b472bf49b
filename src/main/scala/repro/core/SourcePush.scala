package repro.core

import scala.collection.mutable.ArrayBuffer

import repro.graph.{Frontier, Graph}

/** The source graph `G_u` produced by Source-Push (Algorithm 2), collected to
  * the driver. `G_u` is the per-query working set of SimPush: by Lemma 2 it
  * holds O(1/eps) attention nodes within L <= L* levels, so the later stages
  * (Algorithms 3 and 4) run on this small structure, with no traversal of
  * the full graph.
  *
  * @param h         `h(l)(node)` = hitting probability `h^{(l)}(u, node)`,
  *                  for levels 0..L (exact, from exhaustive propagation)
  * @param downEdges index `l` in 0..L-1 holds the `G_u` edges from level
  *                  `l+1` nodes to level `l` nodes, as `(upNode, downNode)` —
  *                  the paper's "incoming edges from the (l+1)-th level to
  *                  the l-th level"
  * @param attention `attention(l)` = nodes with `h^{(l)}(u, .) >= epsH`,
  *                  levels 1..L (level 0 unused)
  */
final case class SourceGraph(
    u: Long,
    L: Int,
    numWalks: Long,
    h: IndexedSeq[Map[Long, Double]],
    downEdges: IndexedSeq[Array[(Long, Long)]],
    attention: IndexedSeq[Map[Long, Double]],
) {
  def attentionCount: Int = attention.map(_.size).sum

  /** Distinct (level, node) pairs in G_u. */
  def numLevelNodes: Long = h.map(_.size.toLong).sum

  def numEdges: Long = downEdges.map(_.length.toLong).sum
}

/** Stage 1 of SimPush (Section 4.1): detect the max level L by Monte-Carlo
  * walk sampling, then propagate hitting probabilities from the query node
  * level by level over the CSR graph on the driver, recording `G_u` along
  * the way. The walks are one Spark job that counts visits into per-task
  * primitive arrays ([[RandomWalks.countVisits]]); L is read straight off
  * the summed array, with no DataFrame, shuffle or row per visit.
  */
object SourcePush {

  /** `eps_h = (1 - sqrt(c)) / (3 sqrt(c)) * eps` — Definition 3 / Lemma 4. */
  def epsH(eps: Double, c: Double): Double = {
    val sc = math.sqrt(c)
    (1 - sc) / (3 * sc) * eps
  }

  /** `L* = floor(log_{1/sqrt(c)} (1/eps_h))` — Lemma 2. */
  def maxLevelBound(epsH: Double, c: Double): Int =
    math.floor(math.log(1.0 / epsH) / math.log(1.0 / math.sqrt(c))).toInt

  /** Walk budget of Algorithm 2, line 2: `2 log(1/((1-sqrt(c)) epsH delta)) / epsH^2`. */
  def walkBudget(epsH: Double, c: Double, delta: Double): Long = {
    val sc = math.sqrt(c)
    math.ceil(2.0 * math.log(1.0 / ((1 - sc) * epsH * delta)) / (epsH * epsH)).toLong
  }

  /** Run Source-Push for query node `u`.
    *
    * The level-detection threshold is `(epsH / 2) * numWalks` visits: the
    * Hoeffding argument in Lemma 5 detects `h >= epsH` through an estimate
    * `>= epsH/2`. (Algorithm 2's literal line 6 — half of all walks — is a
    * typo: it would require `h >= 1/2`; see DESIGN.md.)
    *
    * @param maxWalks cap on the sampled walks (the paper's budget grows as
    *                 1/epsH^2; the cap keeps tiny-eps runs tractable and only
    *                 affects the L-detection confidence, not correctness of
    *                 the propagation)
    */
  def run(g: Graph, u: Long, c: Double, epsHv: Double, delta: Double,
          maxWalks: Long = 2_000_000L, seed: Long = 42L): SourceGraph = {
    val lStar = maxLevelBound(epsHv, c)
    val lg    = g.local

    // --- Monte-Carlo level detection (Algorithm 2, lines 1-8) ---
    // L = the deepest step >= 1 that some node is visited at by at least
    // `threshold` walks; the counts are indexed `step * n + node`.
    val numWalks  = math.max(1000L, math.min(maxWalks, walkBudget(epsHv, c, delta)))
    val threshold = (epsHv / 2.0) * numWalks
    val n         = lg.n
    val visits    = RandomWalks.countVisits(g, u, numWalks, c, math.max(lStar, 0), seed)
    val lDetected = (visits.length - 1 to n by -1).find(visits(_) >= threshold).fold(0)(_ / n)
    val L = math.min(lDetected, lStar)

    // --- Exhaustive residue propagation (Algorithm 2, lines 9-21) ---
    // Pushing h^{(l)}(u, .) along in-edges gives h^{(l+1)}(u, .); the edges
    // pushed along are exactly the G_u edges between levels l+1 and l.
    val sqrtC     = math.sqrt(c)
    val hLevels   = ArrayBuffer(Map(u -> 1.0))
    val downEdges = ArrayBuffer[Array[(Long, Long)]]()
    var frontier  = Frontier.single(u.toInt)
    var l = 0
    while (l < L && !frontier.isEmpty) {
      val edges = Array.newBuilder[(Long, Long)]
      frontier = lg.push(frontier, sqrtC, reverse = false, (x, y) => edges += ((x.toLong, y.toLong)))
      downEdges += edges.result()
      hLevels += frontier.toMap
      l += 1
    }
    val actualL = hLevels.size - 1 // may be < L if the frontier died out

    val attention = hLevels.zipWithIndex.map { case (hm, lvl) =>
      if (lvl == 0) Map.empty[Long, Double]
      else hm.filter { case (_, hv) => hv >= epsHv }
    }

    SourceGraph(u, actualL, numWalks, hLevels.toIndexedSeq, downEdges.toIndexedSeq,
      attention.toIndexedSeq)
  }
}
