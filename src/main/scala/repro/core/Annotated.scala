package repro.core

import repro.core.Tup.T
import scala.collection.mutable

/** A commutative ring `(S, ⊕, ⊗)` for §7.3 aggregations. Deletions need
  * additive inverses, hence a ring rather than a semiring (footnote 7).
  */
trait Ring[A] {
  def zero: A
  def one: A
  def plus(a: A, b: A): A
  def times(a: A, b: A): A
  def negate(a: A): A
}

object Ring {
  /** ℤ — COUNT aggregates. */
  implicit object LongRing extends Ring[Long] {
    val zero = 0L; val one = 1L
    def plus(a: Long, b: Long): Long = a + b
    def times(a: Long, b: Long): Long = a * b
    def negate(a: Long): Long = -a
  }
  /** ℝ — SUM aggregates. */
  implicit object DoubleRing extends Ring[Double] {
    val zero = 0.0; val one = 1.0
    def plus(a: Double, b: Double): Double = a + b
    def times(a: Double, b: Double): Double = a * b
    def negate(a: Double): Double = -a
  }
}

/** §7.3: CROWN with ring annotations — maintains
  * `SELECT y, AGG(...) GROUP BY y` over a free-connex join tree.
  *
  * Realizes formulas (10)–(12) in sum-product form: for every node whose
  * subtree carries **no** output attribute, the engine maintains the
  * annotated projection view
  *
  *   `vpAgg(e)(k) = Σ_{t ∈ V_s(e), t[key]=k}  base(t) ⊗ Π_c vpAgg(c)(t[key(c)])`
  *
  * incrementally (this is the "aggregated-away" part — the reason §7.3 can
  * avoid enumerating the full join). Nodes that carry output attributes keep
  * only set-semantics membership; their annotations combine at enumeration
  * time, where results sharing an output projection sum (formula (11)/(12)).
  * Per the paper, a value change keeps propagating upward even when the
  * membership counter does not flip — unlike Algorithm 2.
  */
final class AnnotatedCrown[A](val cq: CQ, val treeSpec: JTNode,
                              baseAnnot: (String, T) => A)(implicit ring: Ring[A]) {

  private val y = cq.output
  private val ySet = y.toSet

  private final class NState(var count: Int, var w: A)

  private final class ANode(val id: Int, val attrs: Vector[String], val atom: Option[Atom]) {
    val isGen: Boolean = atom.isEmpty
    var parent: ANode = _
    var children: Array[ANode] = Array.empty
    var childPos: Int = -1
    val yAttrs: Vector[String] = attrs.filter(ySet.contains)
    def isRoot: Boolean = parent == null
    var keyAttrs: Vector[String] = Vector.empty
    var keyIdx: Array[Int] = _
    var yIdx: Array[Int] = _
    var yOut: Array[Int] = _
    var childKeyIdx: Array[Array[Int]] = _
    var subtreeHasY: Boolean = false
    // state
    val tuples = mutable.HashMap.empty[T, NState]
    var childIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _
    val vpCnt = mutable.HashMap.empty[T, Int]                  // non-root membership
    val vsByKey = mutable.HashMap.empty[T, mutable.HashSet[T]] // non-root
    val vpAgg = mutable.HashMap.empty[T, A]                    // non-root, !subtreeHasY
  }

  private val nodes = mutable.ArrayBuffer.empty[ANode]
  private val root: ANode = {
    def build(s: JTNode): ANode = {
      val n = new ANode(nodes.length, s.attrs, s.atomName.map(cq.atomByName))
      nodes += n
      n.children = s.children.map(build).toArray
      for ((c, i) <- n.children.zipWithIndex) { c.parent = n; c.childPos = i }
      n
    }
    build(treeSpec)
  }
  locally {
    def mark(n: ANode): Boolean = {
      val below = n.children.map(mark).count(identity) > 0
      n.subtreeHasY = n.yAttrs.nonEmpty || below
      n.subtreeHasY
    }
    mark(root)
  }
  // two passes: children's keyAttrs must exist before parents compile
  // their child-key projections
  for (n <- nodes) {
    n.yIdx = Tup.projIdx(n.attrs, n.yAttrs)
    n.yOut = Tup.projIdx(y, n.yAttrs)
    if (!n.isRoot) {
      n.keyAttrs = n.parent.attrs.filter(n.attrs.contains)
      n.keyIdx = Tup.projIdx(n.attrs, n.keyAttrs)
    }
  }
  for (n <- nodes) {
    n.childKeyIdx = n.children.map(c => Tup.projIdx(n.attrs, c.keyAttrs))
    if (!n.isGen) n.childIdx = n.children.map(_ => mutable.HashMap.empty[T, mutable.HashSet[T]])
  }
  private val atomNode: Map[String, ANode] =
    nodes.filter(_.atom.isDefined).map(n => n.atom.get.name -> n).toMap

  private def member(e: ANode, st: NState): Boolean = st.count == e.children.length

  /** Recompute a no-output-subtree tuple's annotated weight (formula (10)). */
  private def wValue(e: ANode, t: T): A = {
    var v = e.atom.map(a => baseAnnot(a.name, t)).getOrElse(ring.one)
    var i = 0
    while (i < e.children.length) {
      v = ring.times(v, e.children(i).vpAgg.getOrElse(Tup.proj(t, e.childKeyIdx(i)), ring.zero))
      i += 1
    }
    v
  }

  /** Push a membership and/or weight change of `t` at `e` into `e`'s views
    * and onward to the parent. `wasMember`/`oldW` describe the state before.
    */
  private def settle(e: ANode, t: T, wasMember: Boolean, oldW: A): Unit = {
    val st = e.tuples.getOrElse(t, null)
    val isMember = st != null && member(e, st)
    val newW =
      if (!isMember) ring.zero
      else if (e.subtreeHasY) ring.one // weights only tracked on no-Y subtrees
      else wValue(e, t)
    if (st != null) st.w = newW
    if (e.isRoot) return
    val k = Tup.proj(t, e.keyIdx)
    var cntFlip = false
    if (isMember && !wasMember) {
      e.vsByKey.getOrElseUpdate(k, mutable.HashSet.empty) += t
      val c = e.vpCnt.getOrElse(k, 0)
      e.vpCnt(k) = c + 1
      cntFlip = c == 0
    } else if (!isMember && wasMember) {
      e.vsByKey.get(k).foreach { s => s -= t; if (s.isEmpty) e.vsByKey.remove(k) }
      val c = e.vpCnt(k)
      if (c == 1) { e.vpCnt.remove(k); cntFlip = true } else e.vpCnt(k) = c - 1
    }
    var wDelta = ring.zero
    if (!e.subtreeHasY) {
      wDelta = ring.plus(newW, ring.negate(if (wasMember) oldW else ring.zero))
      if (wDelta != ring.zero) {
        val cur = ring.plus(e.vpAgg.getOrElse(k, ring.zero), wDelta)
        if (e.vpCnt.contains(k)) e.vpAgg(k) = cur else e.vpAgg.remove(k)
      } else if (!e.vpCnt.contains(k)) e.vpAgg.remove(k)
    }
    if (cntFlip || wDelta != ring.zero) touchParent(e, k, cntFlip)
  }

  /** Parent-side reaction to a child projection-view change under key `k`. */
  private def touchParent(child: ANode, k: T, cntFlip: Boolean): Unit = {
    val p = child.parent
    if (p.isGen) {
      val existing = p.tuples.get(k)
      val wasMember = existing.exists(member(p, _))
      val oldW = existing.map(_.w).getOrElse(ring.zero)
      if (cntFlip) {
        val st = existing.getOrElse { val s = new NState(0, ring.zero); p.tuples(k) = s; s }
        if (child.vpCnt.contains(k)) st.count += 1 else st.count -= 1
      }
      settle(p, k, wasMember, oldW)
      if (p.tuples.get(k).exists(_.count == 0)) p.tuples.remove(k)
    } else {
      p.childIdx(child.childPos).get(k) match {
        case None => ()
        case Some(set) =>
          for (tt <- set.toList) {
            val st = p.tuples(tt)
            val wasMember = member(p, st)
            val oldW = st.w
            if (cntFlip) {
              if (child.vpCnt.contains(k)) st.count += 1 else st.count -= 1
            }
            settle(p, tt, wasMember, oldW)
          }
      }
    }
  }

  /** Apply one base-table update. */
  def update(u: Upd): Unit = {
    val e = atomNode(u.rel)
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return
    if (u.isInsert) {
      if (e.tuples.contains(u.t)) return
      var cnt = 0
      var i = 0
      while (i < e.children.length) {
        val k = Tup.proj(u.t, e.childKeyIdx(i))
        e.childIdx(i).getOrElseUpdate(k, mutable.HashSet.empty) += u.t
        if (e.children(i).vpCnt.contains(k)) cnt += 1
        i += 1
      }
      e.tuples(u.t) = new NState(cnt, ring.zero)
      settle(e, u.t, wasMember = false, ring.zero)
    } else {
      val st = e.tuples.getOrElse(u.t, null)
      if (st == null) return
      val wasMember = member(e, st)
      val oldW = st.w
      e.tuples.remove(u.t)
      var i = 0
      while (i < e.children.length) {
        val k = Tup.proj(u.t, e.childKeyIdx(i))
        e.childIdx(i).get(k).foreach { s => s -= u.t; if (s.isEmpty) e.childIdx(i).remove(k) }
        i += 1
      }
      settle(e, u.t, wasMember, oldW)
    }
  }

  /** Current aggregate table: output tuple → aggregate value. Enumerates
    * output-carrying nodes only; aggregated-away subtrees contribute their
    * maintained `vpAgg` factors (formula (12)).
    */
  def results(): Map[T, A] = {
    val out = mutable.HashMap.empty[T, A]
    val slots = new Array[AnyRef](y.length)

    def factor(e: ANode, t: T): A = {
      var v = e.atom.map(a => baseAnnot(a.name, t)).getOrElse(ring.one)
      var i = 0
      while (i < e.children.length) {
        val c = e.children(i)
        if (!c.subtreeHasY)
          v = ring.times(v, c.vpAgg.getOrElse(Tup.proj(t, e.childKeyIdx(i)), ring.zero))
        i += 1
      }
      v
    }

    def writeY(e: ANode, t: T): Unit = {
      var i = 0
      while (i < e.yIdx.length) { slots(e.yOut(i)) = t.ref(e.yIdx(i)); i += 1 }
    }

    def descend(e: ANode, t: T, acc: A, cont: A => Unit): Unit = {
      writeY(e, t)
      val kids = e.children.filter(_.subtreeHasY)
      def go(i: Int, a: A): Unit = {
        if (i == kids.length) cont(a)
        else {
          val c = kids(i)
          c.vsByKey.get(Tup.proj(t, e.childKeyIdx(c.childPos))).foreach { set =>
            for (tt <- set) descend(c, tt, a, go(i + 1, _))
          }
        }
      }
      go(0, ring.times(acc, factor(e, t)))
    }

    for ((t, st) <- root.tuples if member(root, st)) {
      descend(root, t, ring.one, { a =>
        val res = Tup.fromSlots(slots)
        out(res) = ring.plus(out.getOrElse(res, ring.zero), a)
      })
    }
    out.filter(_._2 != ring.zero).toMap
  }
}
