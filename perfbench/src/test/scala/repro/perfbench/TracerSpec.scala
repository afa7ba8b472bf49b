package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class TracerSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long) = Span(id, parent, 0, s"s$id", start, end)

  test("self time is the duration minus the union of the children's intervals") {
    val spans = Seq(
      span(0, -1, 0, 100),
      span(1, 0, 10, 30),
      span(2, 0, 20, 50), // overlaps span 1: 10..50 is covered once
      span(3, 0, 70, 80),
      span(4, 1, 12, 28), // a grandchild does not count against span 0
    )
    val self = Tracer.selfTimes(spans)
    assert(self(0) === 100 - 40 - 10)
    assert(self(1) === 20 - 16)
    assert(self(2) === 30)
    assert(self(4) === 16)
  }

  test("children are clipped to the parent's interval") {
    val self = Tracer.selfTimes(Seq(span(0, -1, 0, 10), span(1, 0, -5, 4), span(2, 0, 8, 20)))
    assert(self(0) === 10 - 4 - 2)
  }

  test("the tracer nests spans opened inside another span's body") {
    val t = new Tracer
    val r = t.span(7, "query") { t.span(7, "a")(1) + t.span(7, "b")(2) }
    t.span(7, "probe")(())
    assert(r === 3)
    val byName = t.all.map(s => s.name -> s).toMap
    assert(byName("query").parent === -1 && byName("probe").parent === -1)
    assert(byName("a").parent === byName("query").id && byName("b").parent === byName("query").id)
    assert(t.all.forall(s => s.query == 7 && s.endNs >= s.startNs))
    assert(byName("a").startNs >= byName("query").startNs && byName("b").endNs <= byName("query").endNs)
  }
}
