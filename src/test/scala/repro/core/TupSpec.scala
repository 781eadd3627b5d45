package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Tuple representation and projection compilation. */
class TupSpec extends AnyFunSuite {

  test("structural equality and hashing") {
    assert(Tup(1L, "a") == Tup(1L, "a"))
    assert(Tup(1L, "a").hashCode == Tup(1L, "a").hashCode)
    assert(Tup(1L, 2L) != Tup(2L, 1L))
    assert(Tup() == Tup.empty)
  }

  test("projIdx compiles positional projections") {
    val idx = Tup.projIdx(Seq("a", "b", "c"), Seq("c", "a"))
    assert(idx.toSeq == Seq(2, 0))
    assert(Tup.proj(Tup(10L, 20L, 30L), idx) == Tup(30L, 10L))
  }

  test("projIdx rejects unknown attributes") {
    intercept[IllegalArgumentException] {
      Tup.projIdx(Seq("a", "b"), Seq("z"))
    }
  }

  test("empty projection yields the empty tuple") {
    assert(Tup.proj(Tup(1L, 2L), Array.empty[Int]) == Tup.empty)
  }

  test("null values are first-class (IS NULL filters rely on it)") {
    val t = Tup(1L, null, 3L)
    assert(t(1) == null)
    assert(t == Tup(1L, null, 3L))
    assert(Tup.proj(t, Array(1)) == Tup(null))
  }

  test("Int, Short and Byte values are stored as Long") {
    assert(Tup(1) == Tup(1L))
    assert(Tup(1).hashCode == Tup(1L).hashCode)
    assert(Tup(2.toShort, 3.toByte) == Tup(2L, 3L))
    assert(Tup(1)(0).isInstanceOf[java.lang.Long])
  }

  test("String and null slots compare and hash by value") {
    val a = Tup("x", null, 3L)
    val b = Tup(new String("x"), null, 3L)
    assert(a == b)
    assert(a.hashCode == b.hashCode)
    assert(a != Tup("x", 3L, null))
    assert(Tup(null) != Tup(0L))
    assert(Tup(null, null) == Tup(null, null))
    assert(Tup("x") != Tup("y"))
  }

  test("tuples from proj and fromSlots equal Tup(...) of the same values") {
    val t = Tup(10L, "b", null, 40L)
    val p = Tup.proj(t, Array(3, 1, 2))
    assert(p == Tup(40L, "b", null))
    assert(p.hashCode == Tup(40L, "b", null).hashCode)
    val slots = Array[AnyRef](java.lang.Long.valueOf(7L), "s", null)
    val f = Tup.fromSlots(slots)
    slots(0) = java.lang.Long.valueOf(8L) // the tuple keeps its own copy
    assert(f == Tup(7L, "s", null))
    assert(f.hashCode == Tup(7L, "s", null).hashCode)
  }

  test("a Tup equals only another Tup") {
    assert(Vector(1L) != Tup(1L))
    assert(Tup(1L) != Vector(1L))
    assert(!Vector[Any](1L, "a").equals(Tup(1L, "a")))
    assert(!Tup(1L, "a").equals(Vector[Any](1L, "a")))
  }

  test("Java serialization round trip") {
    val t = Tup(1L, "a", null)
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(t)
    out.close()
    val back = new java.io.ObjectInputStream(
      new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject()
    assert(back.isInstanceOf[Tup])
    assert(back == t)
    assert(back.hashCode == t.hashCode)
  }

  test("hash codes of a 1000 x 1000 grid of pairs are at least 99% distinct") {
    val hs = new Array[Int](1000 * 1000)
    for (a <- 0 until 1000; b <- 0 until 1000) hs(a * 1000 + b) = Tup(a.toLong, b.toLong).hashCode
    java.util.Arrays.sort(hs)
    var distinct = 1
    for (i <- 1 until hs.length) if (hs(i) != hs(i - 1)) distinct += 1
    assert(distinct >= 990000, s"only $distinct distinct hash codes")
  }
}

/** CQ model invariants. */
class QuerySpec extends AnyFunSuite {

  test("atoms must have distinct names and variables") {
    intercept[IllegalArgumentException] {
      Atom("R", Vector("x", "x"))
    }
    intercept[IllegalArgumentException] {
      CQ("bad", Vector(Atom("R", Vector("x")), Atom("R", Vector("y"))), Vector("x"))
    }
  }

  test("output attributes must be query variables") {
    intercept[IllegalArgumentException] {
      CQ("bad", Vector(Atom("R", Vector("x"))), Vector("z"))
    }
  }

  test("isFullJoin distinguishes full joins from join-projects") {
    assert(repro.workload.Queries.hop4Full(1000).isFullJoin)
    assert(!repro.workload.Queries.hop4Intro(1000).isFullJoin)
  }

  test("referenceSql joins every shared variable") {
    val sql = repro.workload.Queries.hop3Full(1000).referenceSql
    assert(sql.contains("G1.c1 = G2.c0"))
    assert(sql.contains("G2.c1 = G3.c0"))
    assert(sql.startsWith("SELECT DISTINCT"))
  }
}
