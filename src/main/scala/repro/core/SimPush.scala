package repro.core

import repro.graph.Graph

/** Parameters of a SimPush query (Definition 1 + Algorithm 1).
  *
  * @param eps      absolute error threshold
  * @param delta    failure probability (paper default 1e-4)
  * @param c        SimRank decay factor (paper default 0.6)
  * @param maxWalks cap on the Monte-Carlo walks used for level detection;
  *                 the paper's budget is ~2 log(1/((1-sqrt c) epsH delta))/epsH^2
  * @param seed     RNG seed for the walk phase (deterministic replay)
  */
final case class SimPushParams(
    eps: Double,
    delta: Double = 1e-4,
    c: Double = 0.6,
    maxWalks: Long = 2_000_000L,
    seed: Long = 42L,
) {
  require(eps > 0 && eps < 1, s"eps must be in (0,1), got $eps")
  require(c > 0 && c < 1, s"c must be in (0,1), got $c")
  require(delta > 0 && delta < 1, s"delta must be in (0,1), got $delta")

  val epsH: Double = SourcePush.epsH(eps, c)
  val lStar: Int   = SourcePush.maxLevelBound(epsH, c)
}

/** Result of a single-source SimPush query.
  *
  * @param scores            sparse `\tilde s(u, v)` including `u -> 1`; absent nodes are 0
  * @param millis            wall time of the whole query
  * @param sourcePushNanos   wall time of stage 1 (walks and Source-Push)
  * @param lastMeetingNanos  wall time of stage 2 (Algorithms 3 and 4); 0 if skipped
  * @param reversePushNanos  wall time of stage 3 (Reverse-Push); 0 if skipped
  */
final case class SimPushResult(
    u: Long,
    scores: Map[Long, Double],
    L: Int,
    attentionCount: Int,
    sourceGraphEdges: Long,
    millis: Long,
    sourcePushNanos: Long,
    lastMeetingNanos: Long,
    reversePushNanos: Long,
)

/** SimPush (Algorithm 1): index-free approximate single-source SimRank.
  *
  * Only the level-detection walks of stage 1 run as a Spark job. The
  * level pushes of stage 1 (Source-Push) and stage 3 (Reverse-Push) run on
  * the driver over the CSR graph; stage 2 operates on the small per-query
  * source graph `G_u` — the paper's separation between O(m)-per-level
  * full-graph work and O(1/eps)-sized attention-node work.
  */
object SimPush {

  def singleSource(g: Graph, u: Long, p: SimPushParams): SimPushResult = {
    require(u >= 0 && u < g.numNodes, s"query node $u is outside [0, ${g.numNodes})")
    val t0 = System.nanoTime()
    val sg = SourcePush.run(g, u, p.c, p.epsH, p.delta, p.maxWalks, p.seed)
    val t1 = System.nanoTime()
    var lastMeetingNanos, reversePushNanos = 0L
    val scores: Map[Long, Double] =
      if (sg.L == 0 || sg.attentionCount == 0) Map.empty
      else {
        val res = LastMeeting.residues(sg, p.c, g.local)
        val t2  = System.nanoTime()
        val est = ReversePush.run(g, res, sg.L, p.c, p.epsH)
        lastMeetingNanos = t2 - t1
        reversePushNanos = System.nanoTime() - t2
        est
      }
    val withSelf = scores - u + (u -> 1.0) // Algorithm 5, line 10
    val millis   = (System.nanoTime() - t0) / 1000000
    SimPushResult(u, withSelf, sg.L, sg.attentionCount, sg.numEdges, millis,
      t1 - t0, lastMeetingNanos, reversePushNanos)
  }
}
