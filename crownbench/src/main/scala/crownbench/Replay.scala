package crownbench

import repro.core.{Compiler, IncrementalEngine, Upd}
import repro.core.Tup.T
import scala.util.control.NonFatal

/** Per-update trace records of one pass, column by column (index = update
  * position in the stream). Times are `System.nanoTime` values; `first` and
  * `last` are the entry into the first emit and the return from the last one,
  * -1 for an update that emits nothing.
  */
final class PassTrace(n: Int) {
  val start, first, last, end, deltas, sinkNs, workOps, alloc = new Array[Long](n)
}

/** Measurements of one replay of a stream through a fresh engine. */
final class PassStats(val updates: Vector[Upd], traced: Boolean) {
  val n: Int = updates.length
  val latNs = new Array[Long](n)
  var updNs = 0L       // sum of processUpdate times, sink included
  var wallNs = 0L      // the whole replay: updates, reads and harness
  var updAlloc = 0L    // bytes this thread allocated inside processUpdate calls
  var deltas = 0L      // results emitted, both signs
  var failed = 0
  var reads = 0
  var readNs = 0L
  var readResults = 0L
  var peakState = 0L   // largest spaceEntries seen, if sampled
  var error: Option[String] = None
  val trace: PassTrace = if (traced) new PassTrace(n) else null

  def updatesPerS: Double = n / (updNs / 1e9)
}

/** Closed-loop replay: one caller sends the next update only after
  * `processUpdate` returns. The sink is the [[OutputCheck]], which is
  * compared with `enumerateFull` at `w.reads` evenly spaced checkpoints and
  * once more when the drained window must be empty.
  */
object Replay {

  private val threads =
    java.lang.management.ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def threadAlloc(): Long = threads.getCurrentThreadAllocatedBytes

  /** Cost of one `System.nanoTime` call in ns: the median of 9 timings of a
    * million back-to-back calls. A traced update makes two per delta, one
    * inside the sink's interval and one between deltas.
    */
  def clockReadNs(): Double = {
    val calls = 1000000
    val per = (0 until 9).map { _ =>
      var sum = 0L
      val t0 = System.nanoTime()
      var i = 0
      while (i < calls) { sum += System.nanoTime(); i += 1 }
      val t1 = System.nanoTime()
      if (sum == 42L) println() // keeps the loop from being removed
      (t1 - t0).toDouble / calls
    }
    Metrics.median(per)
  }

  /** Timestamps the emit callback around the check's sink. */
  private final class EmitClock(inner: T => Unit) extends (T => Unit) {
    var count, first, last, sinkNs = 0L
    def reset(): Unit = { count = 0; first = -1; last = -1; sinkNs = 0 }
    def apply(t: T): Unit = {
      val a = System.nanoTime()
      if (count == 0) first = a
      inner(t)
      count += 1
      val b = System.nanoTime()
      last = b
      sinkNs += b - a
    }
  }

  /** @param peakSamples how many times to sample `spaceEntries` (0 = never);
    *                    samples are taken between updates, outside any timing
    */
  def run(w: Workload, stream: Int, traced: Boolean, peakSamples: Int = 0): PassStats = {
    val ups = w.streams(stream)
    val n = ups.length
    val st = new PassStats(ups, traced)
    val eng = Compiler.compile(w.cq)
    val check = new OutputCheck
    val clock = new EmitClock(check.sink)
    val sink: T => Unit = if (traced) clock else check.sink
    val readAfter = new Array[Boolean](n + 1) // checkpoints strictly inside the stream
    for (k <- 1 to w.reads) readAfter((k.toLong * n / (w.reads + 1)).toInt) = true
    val peakEvery = if (peakSamples > 0) math.max(1, n / peakSamples) else Int.MaxValue
    val tr = st.trace
    val wall0 = System.nanoTime()
    var i = 0
    while (i < n && st.error.isEmpty) {
      val u = ups(i)
      check.begin(u.isInsert)
      val ops0 = if (traced) eng.workOps else 0L
      if (traced) clock.reset()
      val a0 = threadAlloc()
      val t0 = System.nanoTime()
      var k = 0L
      try k = eng.processUpdate(u)(sink)
      catch {
        case NonFatal(e) =>
          if (st.failed == 0) Console.err.println(s"update $i ($u) threw: $e")
          st.failed += 1
      }
      val t1 = System.nanoTime()
      val alloc = threadAlloc() - a0
      st.updAlloc += alloc
      st.latNs(i) = t1 - t0
      st.updNs += t1 - t0
      st.deltas += k
      if (traced) {
        tr.start(i) = t0; tr.end(i) = t1
        tr.first(i) = clock.first; tr.last(i) = clock.last
        tr.deltas(i) = clock.count; tr.sinkNs(i) = clock.sinkNs
        tr.workOps(i) = eng.workOps - ops0
        tr.alloc(i) = alloc
      }
      i += 1
      if (i % peakEvery == 0) st.peakState = math.max(st.peakState, eng.spaceEntries)
      if (readAfter(i)) read(eng, check, st, i)
    }
    if (st.error.isEmpty) check.verify(eng) match {
      case Right(0L) =>
      case Right(k) => st.error = Some(s"the drained window still holds $k results")
      case Left(msg) => st.error = Some(s"at stream end: $msg")
    }
    st.wallNs = System.nanoTime() - wall0
    st
  }

  private def read(eng: IncrementalEngine, check: OutputCheck, st: PassStats, i: Int): Unit = {
    val t0 = System.nanoTime()
    val r = check.verify(eng)
    st.readNs += System.nanoTime() - t0
    r match {
      case Right(k) => st.reads += 1; st.readResults += k
      case Left(msg) => st.error = Some(s"at checkpoint after update $i: $msg")
    }
  }
}
