package repro.perfbench

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream}
import java.nio.file.{Files, Path, StandardCopyOption}
import java.security.MessageDigest

import repro.eval.ExactSimRank
import repro.graph.LocalGraph

/** Exact SimRank ground truth (`ExactSimRank.allPairs`), computed once per
  * dataset and kept on disk under the benchmark's work directory.
  *
  * All-pairs truth on uk-lite costs ~15 s, more than a whole run may spend on
  * it, so later runs read the matrix back. The file is keyed by a digest of
  * the graph's sorted in-adjacency and the SimRank parameters: a change to the
  * dataset generator or to `c`/`iters` computes a fresh matrix.
  */
object Truth {

  final case class Loaded(matrix: Array[Array[Double]], millis: Double, computed: Boolean)

  def load(dir: Path, name: String, lg: LocalGraph, c: Double, iters: Int): Loaded = {
    val t0   = System.nanoTime()
    val file = dir.resolve(s"$name-${digest(lg, c, iters)}.bin")
    val cached = if (Files.isRegularFile(file)) read(file, lg.n) else None
    val (m, computed) = cached match {
      case Some(m) => (m, false)
      case None =>
        val m = ExactSimRank.allPairs(lg, c, iters)
        write(dir, file, m)
        (m, true)
    }
    Loaded(m, (System.nanoTime() - t0) / 1e6, computed)
  }

  private def digest(lg: LocalGraph, c: Double, iters: Int): String = {
    val md  = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def put(x: Long): Unit = { buf.clear(); buf.putLong(x); md.update(buf.array()) }
    put(lg.n.toLong); put(java.lang.Double.doubleToLongBits(c)); put(iters.toLong)
    (0 until lg.n).foreach { v =>
      val in = lg.inNeighbors(v).sorted
      put(-1L - v)
      in.foreach(x => put(x.toLong))
    }
    md.digest().take(12).map("%02x".format(_)).mkString
  }

  private def read(file: Path, n: Int): Option[Array[Array[Double]]] = {
    if (Files.size(file) != 8L * n * n) return None
    val in = new DataInputStream(new BufferedInputStream(Files.newInputStream(file), 1 << 20))
    try Some(Array.fill(n) { val row = new Array[Double](n); var j = 0
      while (j < n) { row(j) = in.readDouble(); j += 1 }; row })
    finally in.close()
  }

  private def write(dir: Path, file: Path, m: Array[Array[Double]]): Unit = {
    Files.createDirectories(dir)
    val tmp = Files.createTempFile(dir, "truth", ".tmp")
    val out = new DataOutputStream(new BufferedOutputStream(Files.newOutputStream(tmp), 1 << 20))
    try m.foreach(_.foreach(out.writeDouble))
    finally out.close()
    Files.move(tmp, file, StandardCopyOption.REPLACE_EXISTING, StandardCopyOption.ATOMIC_MOVE)
  }
}
