package repro.core

import scala.collection.immutable

/** A tuple: positional values over an `Array[AnyRef]`, so every slot is one
  * (compressed) reference. Attribute order is positional and owned by
  * whoever created the tuple (an atom's attribute vector, a tree node's
  * attribute vector, the query's output vector); projections are compiled
  * once into index arrays.
  *
  * Equality and hashing are structural and written for the hash-indexed
  * views: `equals` compares slots with `eq` or `equals`, and `hashCode` is a
  * 64-bit mix over the slots in which a `java.lang.Long` slot contributes its
  * `long` value. The hash is not cached, which would add 8 bytes to every
  * result tuple. [[Tup.apply]] stores `Int`, `Short` and `Byte` values as
  * `java.lang.Long`, so `Tup(1) == Tup(1L)`. A `Tup` is a `Seq[Any]` for
  * reading, but equals only another `Tup`.
  */
final class Tup private[repro] (private val vals: Array[AnyRef])
    extends immutable.IndexedSeq[Any] with java.io.Serializable {

  override def length: Int = vals.length
  override def apply(i: Int): Any = vals(i)

  /** Slot `i` as a reference, for copying into the slots of another tuple. */
  def ref(i: Int): AnyRef = vals(i)

  override def canEqual(that: Any): Boolean = that.isInstanceOf[Tup]

  override def equals(that: Any): Boolean = that match {
    case o: Tup =>
      (this eq o) || {
        val a = vals
        val b = o.vals
        a.length == b.length && {
          var i = 0
          while (i < a.length && ((a(i) eq b(i)) || (a(i) != null && a(i).equals(b(i))))) i += 1
          i == a.length
        }
      }
    case _ => false
  }

  override def hashCode(): Int = {
    var h = Tup.Seed + vals.length
    var i = 0
    while (i < vals.length) {
      val x: Long = vals(i) match {
        case l: java.lang.Long => l.longValue
        case null => 0L
        case v => v.hashCode.toLong
      }
      h = java.lang.Long.rotateLeft(h + x * Tup.P2, 31) * Tup.P1
      i += 1
    }
    h = (h ^ (h >>> 33)) * 0xFF51AFD7ED558CCDL
    h = (h ^ (h >>> 33)) * 0xC4CEB9FE1A85EC53L
    (h ^ (h >>> 33)).toInt
  }

  override protected[this] def className: String = "Tup"
}

/** Tuple construction and projection helpers shared by every engine. */
object Tup {

  /** The tuple type of every engine's views, deltas and results. */
  type T = Tup

  // xxHash64's round primes; the finalizer is MurmurHash3's fmix64
  private final val P1 = 0x9E3779B185EBCA87L
  private final val P2 = 0xC2B2AE3D27D4EB4FL
  private final val Seed = 0x27D4EB2F165667C5L

  /** Build a tuple from varargs; `Int`, `Short` and `Byte` become `Long`. */
  def apply(vals: Any*): T = {
    val a = new Array[AnyRef](vals.length)
    var i = 0
    for (v <- vals) {
      a(i) = v match {
        case x: Int => java.lang.Long.valueOf(x.toLong)
        case x: Short => java.lang.Long.valueOf(x.toLong)
        case x: Byte => java.lang.Long.valueOf(x.toLong)
        case x => x.asInstanceOf[AnyRef]
      }
      i += 1
    }
    new Tup(a)
  }

  /** The empty tuple (projection onto zero attributes). */
  val empty: T = new Tup(new Array[AnyRef](0))

  /** A tuple holding a copy of an engine's output slots. */
  def fromSlots(slots: Array[AnyRef]): T = new Tup(slots.clone())

  /** Project `t` through a precompiled index array. */
  def proj(t: T, idx: Array[Int]): T = {
    val a = new Array[AnyRef](idx.length)
    val v = t.vals
    var i = 0
    while (i < idx.length) { a(i) = v(idx(i)); i += 1 }
    new Tup(a)
  }

  /** Compile the projection from tuples ordered by `from` onto `to`.
    * Every attribute of `to` must occur in `from`.
    */
  def projIdx(from: Seq[String], to: Seq[String]): Array[Int] = {
    val a = to.map { x =>
      val i = from.indexOf(x)
      require(i >= 0, s"attribute $x not in $from")
      i
    }
    a.toArray
  }
}
