package repro.core

import scala.collection.mutable

import repro.graph.LocalGraph

/** Stage 2 of SimPush (Section 4.2): hitting probabilities between attention
  * nodes *within* `G_u` (Algorithm 3) and the last-meeting probabilities
  * `gamma^{(l)}(w)` (Algorithm 4).
  *
  * Both run on the driver: `G_u` is the deliberately small per-query working
  * set (O(1/eps) attention nodes, Lemma 2), and the paper's own design point
  * is that this stage avoids any traversal of the full graph.
  *
  * Both work on dense attention indices. The A attention nodes are numbered
  * 0..A-1 level by level, level 1 first and `attention(l).keysIterator`
  * order within a level, so the targets reachable from level `l` are the
  * index suffix `[start(l), A)` and a row of `\tilde h` from a level-`l`
  * node is one `Array[Double]` of width `A - start(l)`. Every sum has a
  * fixed order (edges in `downEdges` order; the j-sum of Equation 11 by
  * level, then key order), so the scores are a function of `G_u` alone.
  */
object LastMeeting {

  /** Key = (absolute level in G_u, node id). */
  type LevelNode = (Int, Long)

  /** The dense numbering of `sg`'s attention nodes: index `a` is attention
    * node `node(a)` at level `level(a)`, and level `l` holds the indices
    * `[start(l), start(l + 1))` (levels 1..L; `start(0) = start(1) = 0`).
    */
  private final class AttentionIndex(sg: SourceGraph) {
    val start: Array[Int] = new Array[Int](sg.L + 2)
    for (l <- 1 to sg.L) start(l + 1) = start(l) + sg.attention(l).size
    val size: Int          = start(sg.L + 1)
    val node: Array[Long]  = (1 to sg.L).iterator.flatMap(sg.attention(_).keysIterator).toArray
    val level: Array[Int]  = (1 to sg.L).iterator.flatMap(l => Iterator.fill(sg.attention(l).size)(l)).toArray
    def key(a: Int): LevelNode = (level(a), node(a))
  }

  /** Hitting probabilities within G_u (Algorithm 3, via Equation 12).
    *
    * Returns `hp(l)(w)` for every attention node `w` at level `l`: the map
    * from attention target `(l + i, w_i)` to `\tilde h^{(i)}(w, w_i)` — the
    * probability that a \sqrt{c}-walk from `w` (walking within G_u) visits
    * `w_i` at its `i`-th step — holding only the nonzero entries (at most A²
    * over all rows), the self entry `(l, w) -> 1` included.
    *
    * The sweep runs l = L..2 over `downEdges(l - 1)`. Each G_u node at level
    * `l` that reaches an attention node holds a dense row, found through the
    * graph's per-thread slot scratch ([[LocalGraph.slotScratch]]), which is
    * all -1 again on exit. Once level `l - 1` is built, level `l`'s rows are
    * dropped except the attention rows, so peak memory is the rows of two
    * adjacent levels, plus the A attention rows, plus two `Int`s per edge of
    * the level being pushed. Rows of non-attention nodes are not returned.
    */
  def hittingProbs(sg: SourceGraph, c: Double, local: LocalGraph): IndexedSeq[mutable.Map[Long, mutable.Map[LevelNode, Double]]] = {
    val ix   = new AttentionIndex(sg)
    val rows = attentionRows(sg, ix, math.sqrt(c), local)
    val hp   = IndexedSeq.fill(sg.L + 1)(mutable.Map.empty[Long, mutable.Map[LevelNode, Double]])
    for (a <- 0 until ix.size) {
      val base    = ix.start(ix.level(a))
      val entries = mutable.Map.empty[LevelNode, Double]
      for (k <- rows(a).indices if rows(a)(k) != 0.0) entries.update(ix.key(base + k), rows(a)(k))
      hp(ix.level(a)).update(ix.node(a), entries)
    }
    hp
  }

  /** Algorithm 3 on dense rows: row `a` holds `\tilde h` from attention node
    * `a` to the attention indices `[start(level(a)), A)`.
    */
  private def attentionRows(sg: SourceGraph, ix: AttentionIndex, sqrtC: Double,
                            local: LocalGraph): Array[Array[Double]] = {
    val att  = new Array[Array[Double]](ix.size)
    val slot = local.slotScratch
    // The rows of the current level: `slot(nodes(i)) == i` for i < k. The
    // capacity covers the level's senders' receivers plus its attention nodes.
    var nodes = new Array[Int](ix.size)
    var rows  = new Array[Array[Double]](ix.size)
    var k     = 0
    def clearSlots(): Unit = { var i = 0; while (i < k) { slot(nodes(i)) = -1; i += 1 }; k = 0 }
    def rowOf(v: Int, width: Int): Array[Double] = {
      if (slot(v) < 0) { slot(v) = k; nodes(k) = v; rows(k) = new Array[Double](width); k += 1 }
      rows(slot(v))
    }
    try {
      var l = sg.L
      while (l >= 1) {
        // Self entries: step 0 of a walk from an attention node.
        val width = ix.size - ix.start(l)
        var a = ix.start(l)
        while (a < ix.start(l + 1)) {
          att(a) = rowOf(ix.node(a).toInt, width)
          att(a)(a - ix.start(l)) = 1.0
          a += 1
        }
        // A level without rows (no attention node at or below it) pushes nothing.
        if (l >= 2 && k > 0) {
          // Push every row one level down along the G_u edges (level l ->
          // level l-1). The receiver's in-degree in G equals its in-degree
          // in G_u for expanded nodes (Section 4.1). The edges that carry a
          // row are listed, by sender row and receiver, before the scratch
          // is handed over to level l-1.
          val down   = sg.downEdges(l - 1) // (upNode at level l, downNode at level l-1)
          val sender = new Array[Int](down.length)
          val recv   = new Array[Int](down.length)
          var m = 0
          var e = 0
          while (e < down.length) {
            val edge = down(e)
            val s    = slot(edge._1.toInt)
            if (s >= 0) { sender(m) = s; recv(m) = edge._2.toInt; m += 1 }
            e += 1
          }
          val upRows = rows
          clearSlots()
          val nextWidth = ix.size - ix.start(l - 1)
          val shift     = ix.start(l) - ix.start(l - 1)
          nodes = new Array[Int](m + nextWidth)
          rows = new Array[Array[Double]](nodes.length)
          e = 0
          while (e < m) {
            val src    = upRows(sender(e))
            val tgt    = rowOf(recv(e), nextWidth)
            val factor = sqrtC / local.inDeg(recv(e))
            var j = 0
            while (j < src.length) { tgt(shift + j) += factor * src(j); j += 1 }
            e += 1
          }
        }
        l -= 1
      }
    } finally clearSlots()
    att
  }

  /** Last-meeting probabilities `gamma^{(l)}(w)` for every attention node
    * (Algorithm 4, via Equations 9-11), given Algorithm 3's output.
    */
  def gammas(sg: SourceGraph, hp: IndexedSeq[mutable.Map[Long, mutable.Map[LevelNode, Double]]]): Map[LevelNode, Double] = {
    val ix   = new AttentionIndex(sg)
    val size = ix.size
    val rows = Array.tabulate(size) { a =>
      val base    = ix.start(ix.level(a))
      val entries = hp(ix.level(a)).getOrElse(ix.node(a), mutable.Map.empty[LevelNode, Double])
      Array.tabulate(size - base)(k => entries.getOrElse(ix.key(base + k), 0.0))
    }
    // Reverse-Push adds the residues in this map's iteration order, so it is
    // filled as a hash map in index order, then copied: the order, and with
    // it every score, stays a function of G_u.
    val out = mutable.Map.empty[LevelNode, Double]
    // rho(i)(w_i) of Equations 10 and 11 for the current w, by attention index.
    val rho = new Array[Double](size)
    for (a <- 0 until size) {
      val hw    = rows(a) // \tilde h^{(i)}(w, .) from index start(level(a))
      val base  = ix.start(ix.level(a))
      val first = ix.start(ix.level(a) + 1) // the attention nodes deeper than w
      java.util.Arrays.fill(rho, first, size, 0.0)
      var gamma = 1.0
      var i = first
      while (i < size) {
        val hti = hw(i - base)
        if (hti > 0.0) {
          var r = hti * hti
          // Subtract the walks that already met at a shallower attention node.
          var j = first
          while (j < ix.start(ix.level(i))) {
            val rj = rho(j)
            if (rj > 0.0) {
              val hji = rows(j)(i - ix.start(ix.level(j)))
              r -= rj * hji * hji
            }
            j += 1
          }
          if (r > 0.0) { rho(i) = r; gamma -= r }
        }
        i += 1
      }
      out.update(ix.key(a), math.max(0.0, math.min(1.0, gamma)))
    }
    out.toMap
  }

  /** Convenience: run both algorithms and return the per-attention-node
    * initial residues `r^{(l)}(w) = h^{(l)}(u, w) * gamma^{(l)}(w)`
    * consumed by Reverse-Push (Algorithm 1, line 7).
    */
  def residues(sg: SourceGraph, c: Double, local: LocalGraph): Map[LevelNode, Double] = {
    val hp = hittingProbs(sg, c, local)
    val g  = gammas(sg, hp)
    g.map { case ((l, w), gamma) => (l, w) -> sg.h(l)(w) * gamma }
  }
}
