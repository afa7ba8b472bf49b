package repro.graph

import java.util.SplittableRandom

/** Compact CSR copy of a directed graph. Every level-wise push runs on it
  * through [[push]], on the driver or per seed in a Spark task, and every
  * \sqrt{c}-walk through [[walk]]; it is broadcast to executors (once per
  * graph, [[Graph.localBroadcast]]) for embarrassingly-parallel walk
  * simulation and index fan-out.
  *
  * Node ids must be dense in `[0, n)`. Edges are directed `src -> dst`;
  * a \sqrt{c}-walk moves from a node to a uniformly random *in*-neighbor.
  */
final class LocalGraph(
    val n: Int,
    private val inOff: Array[Int],
    private val inAdj: Array[Int],
    private val outOff: Array[Int],
    private val outAdj: Array[Int],
) extends Serializable {

  /** Number of directed edges. */
  def m: Int = inAdj.length

  /** In-degree of node `v` in the full graph. */
  def inDeg(v: Int): Int = inOff(v + 1) - inOff(v)

  /** Out-degree of node `v` in the full graph. */
  def outDeg(v: Int): Int = outOff(v + 1) - outOff(v)

  /** In-neighbors of `v` (nodes `x` with an edge `x -> v`). */
  def inNeighbors(v: Int): IndexedSeq[Int] =
    (inOff(v) until inOff(v + 1)).map(inAdj)

  /** Out-neighbors of `v` (nodes `y` with an edge `v -> y`). */
  def outNeighbors(v: Int): IndexedSeq[Int] =
    (outOff(v) until outOff(v + 1)).map(outAdj)

  /** Uniformly random in-neighbor of `v`; requires `inDeg(v) > 0`. */
  def randomInNeighbor(v: Int, rng: SplittableRandom): Int =
    inAdj(inOff(v) + rng.nextInt(inDeg(v)))

  /** The step loop of every \sqrt{c}-walk in this repo (Definition 2 of
    * the paper): at each step the walk stops with probability `1 - sqrt(c)`,
    * otherwise jumps to a uniformly random in-neighbor (or stops if there is
    * none). Calls `visit(step, node)` for every position, from `(0, start)`
    * on; at most `maxSteps` steps are taken beyond the start. Each step draws
    * `rng.nextDouble()` and then, if the walk moves, `rng.nextInt(inDeg)`, so
    * a walk is a function of its generator's state alone.
    */
  def walk(start: Int, c: Double, maxSteps: Int, rng: SplittableRandom)(visit: (Int, Int) => Unit): Unit = {
    val sqrtC = math.sqrt(c)
    var cur   = start
    var step  = 0
    visit(0, cur)
    while (step < maxSteps && rng.nextDouble() < sqrtC && inDeg(cur) > 0) {
      cur = randomInNeighbor(cur, rng)
      step += 1
      visit(step, cur)
    }
  }

  /** One \sqrt{c}-walk from `start` through [[walk]]: the visited nodes,
    * index `l` being the position at step `l` (index 0 = start).
    */
  def sqrtCWalk(start: Int, c: Double, maxSteps: Int, rng: SplittableRandom): Array[Int] = {
    val buf = new scala.collection.mutable.ArrayBuffer[Int](8)
    walk(start, c, maxSteps, rng)((_, v) => buf += v)
    buf.toArray
  }

  /** Simulate two independent \sqrt{c}-walks, one from `a` and one from `b`,
    * and report whether they ever meet (same node at the same step `>= 1`).
    * The meeting frequency over many pairs estimates `s(a, b)` (Monte-Carlo
    * SimRank); with `a == b` it estimates `1 - eta(a)`, the last-meeting
    * probability of SLING/PRSim.
    */
  def pairWalksMeet(a: Int, b: Int, c: Double, maxSteps: Int, rng: SplittableRandom): Boolean = {
    val sqrtC = math.sqrt(c)
    var x = a; var y = b
    var step = 0
    while (step < maxSteps) {
      // advance both; either may die this step
      val xLive = rng.nextDouble() < sqrtC && inDeg(x) > 0
      val yLive = rng.nextDouble() < sqrtC && inDeg(y) > 0
      if (!xLive || !yLive) return false
      x = randomInNeighbor(x, rng)
      y = randomInNeighbor(y, rng)
      step += 1
      if (x == y) return true
    }
    false
  }

  /** Per-thread scratch of [[push]]: `slot(v)` is `v`'s index in the level
    * being built, or -1. It is all -1 between calls.
    */
  @transient private lazy val slots: ThreadLocal[Array[Int]] =
    ThreadLocal.withInitial(() => Array.fill(n)(-1))

  /** This thread's `n`-sized slot scratch (the one [[push]] uses), all -1.
    * A borrower maps nodes to dense indices in it, must not call [[push]]
    * while it holds entries, and must leave it all -1 (in a `finally`).
    */
  private[repro] def slotScratch: Array[Int] = slots.get()

  /** The level-push kernel behind every level-wise propagation in this repo
    * (Source-Push, Reverse-Push and the baselines' pushes). Mass `h` at a
    * frontier node flows along each of its edges `x -> y` with weight
    * `sqrtC / din(y)`:
    *  - `reverse = false` (walk direction): from `y` to every in-neighbor
    *    `x`, so pushing `h^{(l)}(u, .)` gives `h^{(l+1)}(u, .)`;
    *  - `reverse = true`: from `x` to every out-neighbor `y`, so pushing
    *    `h^{(l)}(., w)` gives `h^{(l+1)}(., w)`.
    * Every edge pushed along is reported as `onEdge(x, y)`. Pruning and
    * truncation are the caller's policy: the kernel keeps all mass.
    *
    * @return the next level, nodes in the order they are first reached
    */
  def push(front: Frontier, sqrtC: Double, reverse: Boolean,
           onEdge: (Int, Int) => Unit = LocalGraph.NoEdge): Frontier = {
    val off  = if (reverse) outOff else inOff
    val adj  = if (reverse) outAdj else inAdj
    val slot = slots.get()
    var cap  = 0L
    var i    = 0
    while (i < front.size) { val v = front.nodes(i); cap += off(v + 1) - off(v); i += 1 }
    val nodes = new Array[Int](math.min(cap, n.toLong).toInt)
    val mass  = new Array[Double](nodes.length)
    var k = 0
    try {
      i = 0
      while (i < front.size) {
        val v = front.nodes(i)
        val h = sqrtC * front.mass(i)
        var e = off(v)
        while (e < off(v + 1)) {
          val w = adj(e)
          if (slot(w) < 0) { slot(w) = k; nodes(k) = w; k += 1 }
          if (reverse) { mass(slot(w)) += h / inDeg(w); onEdge(v, w) }
          else { mass(slot(w)) += h / inDeg(v); onEdge(w, v) }
          e += 1
        }
        i += 1
      }
    } finally { // leave the scratch clean even if onEdge throws
      i = 0
      while (i < k) { slot(nodes(i)) = -1; i += 1 }
    }
    new Frontier(java.util.Arrays.copyOf(nodes, k), java.util.Arrays.copyOf(mass, k))
  }
}

object LocalGraph {

  private val NoEdge: (Int, Int) => Unit = (_, _) => ()

  /** Build a CSR graph from an edge list with node ids in `[0, n)`. */
  def fromEdges(n: Int, edges: Iterable[(Int, Int)]): LocalGraph = {
    val inCnt  = new Array[Int](n + 1)
    val outCnt = new Array[Int](n + 1)
    var m = 0
    edges.foreach { case (s, d) =>
      require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of [0,$n)")
      inCnt(d + 1) += 1; outCnt(s + 1) += 1; m += 1
    }
    var i = 0
    while (i < n) { inCnt(i + 1) += inCnt(i); outCnt(i + 1) += outCnt(i); i += 1 }
    val inOff  = inCnt.clone(); val outOff = outCnt.clone()
    val inAdj  = new Array[Int](m); val outAdj = new Array[Int](m)
    val inPos  = inOff.clone(); val outPos = outOff.clone()
    edges.foreach { case (s, d) =>
      inAdj(inPos(d)) = s; inPos(d) += 1
      outAdj(outPos(s)) = d; outPos(s) += 1
    }
    new LocalGraph(n, inOff, inAdj, outOff, outAdj)
  }
}

/** A sparse level vector, the unit [[LocalGraph.push]] works on: mass
  * `mass(i)` sits at node `nodes(i)`, and node ids are distinct.
  */
final class Frontier(val nodes: Array[Int], val mass: Array[Double]) {
  def size: Int        = nodes.length
  def isEmpty: Boolean = nodes.isEmpty

  /** The entries with `keep(node, mass)`, in order. */
  def filter(keep: (Int, Double) => Boolean): Frontier = {
    val idx = nodes.indices.filter(i => keep(nodes(i), mass(i)))
    new Frontier(idx.map(nodes).toArray, idx.map(mass).toArray)
  }

  def toMap: Map[Long, Double] = nodes.indices.iterator.map(i => nodes(i).toLong -> mass(i)).toMap
}

object Frontier {
  def apply(m: Map[Long, Double]): Frontier = {
    val es = m.toArray
    new Frontier(es.map(_._1.toInt), es.map(_._2))
  }

  /** Mass 1 at node `v`. */
  def single(v: Int): Frontier = new Frontier(Array(v), Array(1.0))
}
