package crownbench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Compiler, CrownEngine, Tup}
import repro.core.Tup.T
import repro.stream.Updates
import repro.workload.Queries

class OutputCheckSpec extends AnyFunSuite {

  private val cq = Queries.hop3Full(1000)
  private val stream = Updates.expandSelfJoin(
    Updates.fifoWindow("G", Gen.graph(2, 200, 600), 150), Queries.graphCopies(cq))

  /** Replays the stream with `sink` wrapped by `fault` and returns the
    * check's verdicts at mid-stream and at the end.
    */
  private def replay(fault: (T => Unit) => (T => Unit)): (Either[String, Long], Either[String, Long]) = {
    val eng = Compiler.compile(cq)
    val check = new OutputCheck
    val sink = fault(check.sink)
    val half = stream.length / 2
    var mid: Either[String, Long] = null
    for ((u, i) <- stream.zipWithIndex) {
      check.begin(u.isInsert)
      eng.processUpdate(u)(sink)
      if (i == half) mid = check.verify(eng)
    }
    (mid, check.verify(eng))
  }

  /** Applies `f` to the first delta and passes the others through. */
  private def atFirst(f: (T => Unit, T) => Unit)(inner: T => Unit): T => Unit = {
    var seen = 0
    t => { seen += 1; if (seen == 1) f(inner, t) else inner(t) }
  }

  test("a faithful sink passes mid-stream and ends on an empty window") {
    val (mid, end) = replay(identity)
    assert(mid.exists(_ > 0), mid)
    assert(end == Right(0L))
  }

  test("a sink that drops one delta is caught") {
    val (mid, end) = replay(atFirst((_, _) => ()))
    assert(mid.isLeft && end.isLeft)
  }

  test("a sink that duplicates one delta is caught") {
    val (mid, end) = replay(atFirst((in, t) => { in(t); in(t) }))
    assert(mid.isLeft && end.isLeft)
  }

  test("a sink that alters one delta is caught by the checksum") {
    val (mid, _) = replay(atFirst((in, t) => in(Tup(-1L, -1L, -1L, -1L))))
    assert(mid.isLeft)
  }

  test("a traced replay passes the check and splits every emitting update in order") {
    val w = Workload("test", cq, Vector(stream), reads = 5, shards = 0, "")
    val st = Replay.run(w, 0, traced = true)
    assert(st.error.isEmpty && st.reads == 5 && st.deltas > 0)
    val tr = st.trace
    for (i <- 0 until st.n if tr.deltas(i) > 0)
      assert(tr.start(i) <= tr.first(i) && tr.first(i) <= tr.last(i) && tr.last(i) <= tr.end(i))
    assert(tr.deltas.sum == st.deltas)
  }

  test("per-layer phases add up to the traced wall time; clock reads move to the harness") {
    val w = Workload("test", cq, Vector(stream), reads = 5, shards = 0, "")
    val st = Replay.run(w, 0, traced = true)
    val pass = Pass(0, st, None, 0L, Seq(1, 1), Nil)
    val tree = Compiler.compile(cq).asInstanceOf[CrownEngine].treeSpec
    def layers(clockNs: Double) =
      Metrics.perLayer(Seq(pass), Seq(pass), Setup(Seq(1L), Seq(1L), tree, None), clockNs)
        .map { case (k, v, _) => k -> v }.toMap
    val parts = Seq("crown.silent.s", "crown.pre_emit.s", "crown.delta_enum.s", "crown.post_emit.s",
      "sink.s", "crown.full_enum.s", "harness.s")
    val (raw, charged) = (layers(0), layers(10))
    for (m <- Seq(raw, charged)) assert(math.abs(parts.map(m).sum - m("trace.wall_s")) < 1e-9)
    val emitting = st.trace.deltas.count(_ > 0)
    def moved(k: String) = (raw(k) - charged(k)) * 1e9 / 10
    assert(math.abs(moved("crown.delta_enum.s") - (st.deltas - emitting)) < 1e-3)
    assert(math.abs(moved("sink.s") - st.deltas) < 1e-3)
    assert(math.abs(-moved("harness.s") - (2 * st.deltas - emitting)) < 1e-3)
  }
}
