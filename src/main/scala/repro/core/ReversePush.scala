package repro.core

import repro.graph.{Frontier, Graph}

/** Stage 3 of SimPush (Section 4.3, Algorithm 5): push the residues
  * `r^{(l)}(w) = h^{(l)}(u,w) * gamma^{(l)}(w)` of all attention nodes down
  * the levels of G along *out-going* edges, so that the mass arriving at
  * level 0 at node v estimates
  * `h^{(l)}(u,w) * gamma^{(l)}(w) * h^{(l)}(v,w)` summed over all w.
  *
  * Residues aggregated at the same node and level are combined and pushed
  * together; a residue is pushed only if `sqrt(c) * r >= epsH` (line 4),
  * which bounds the work by O(m log(1/eps)) (Lemma 7). Runs on the driver
  * over the CSR graph.
  */
object ReversePush {

  /** @param residues initial residues keyed by (level, node), levels 1..L
    * @param epsH     push threshold; pass 0 for an exhaustive (exact) push
    * @return sparse SimRank estimates `\tilde s(u, v)` (missing = 0);
    *         the caller sets `\tilde s(u,u) = 1`
    */
  def run(g: Graph, residues: Map[(Int, Long), Double], L: Int, c: Double,
          epsH: Double): Map[Long, Double] = {
    val lg     = g.local
    val sqrtC  = math.sqrt(c)
    val seeded = residues.groupMap(_._1._1) { case ((_, w), r) => w -> r }
    var state  = Map.empty[Long, Double]
    var level  = L
    while (level >= 1) {
      // Combine the mass pushed down from level+1 with the residues seeded here.
      state = seeded.getOrElse(level, Nil).foldLeft(state) { case (s, (w, r)) =>
        s.updated(w, s.getOrElse(w, 0.0) + r)
      }
      val pushers = state.filter { case (_, r) => sqrtC * r >= epsH }
      state = lg.push(Frontier(pushers), sqrtC, reverse = true).toMap
      level -= 1
    }
    state
  }
}
