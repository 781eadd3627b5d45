package crownbench

import repro.core.IncrementalEngine
import repro.core.Tup.T

/** The benchmark's sink and output check.
  *
  * Under set semantics the signed sum of an engine's delta stream (+1 per
  * result of an insertion, -1 per result of a deletion) is its current full
  * result. The check keeps that signed count and a signed, order-independent
  * checksum of the emitted tuples, and compares both with `enumerateFull`.
  * A dropped, duplicated or altered delta leaves them apart.
  */
final class OutputCheck {
  private var sign = 1L
  private var count = 0L
  private var sum = 0L

  /** Call before each update: the sign its deltas carry. */
  def begin(isInsert: Boolean): Unit = sign = if (isInsert) 1L else -1L

  /** Receives every delta tuple of the current update. */
  val sink: T => Unit = t => { count += sign; sum += sign * OutputCheck.hash(t) }

  /** Enumerates the engine's full result and returns its size, or a message
    * saying how it differs from the delta stream seen so far.
    */
  def verify(eng: IncrementalEngine): Either[String, Long] = {
    var n = 0L
    var s = 0L
    eng.enumerateFull { t => n += 1; s += OutputCheck.hash(t); true }
    if (n == count && s == sum) Right(n)
    else Left(s"full result has $n tuples (checksum $s), deltas sum to $count (checksum $sum)")
  }
}

object OutputCheck {

  /** A 64-bit scramble (SplitMix64 finalizer) of the tuple's structural hash. */
  def hash(t: T): Long = {
    var z = t.hashCode.toLong * 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
