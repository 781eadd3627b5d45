package repro.baseline

import repro.core.{CQ, IncrementalEngine, Tup, Upd}
import repro.core.Tup.T
import scala.collection.mutable

/** Standard change propagation (§1, Fig 1(a)): a left-deep join plan whose
  * every intermediate view `V_i = π(a_1 ⋈ ... ⋈ a_i)` is materialized as a
  * multiset with derivation counts; an update to `a_j` joins its delta
  * through `V_{j-1}` and then the remaining base relations, updating every
  * view above `j`. This is the engine model of Flink SQL and Trill in the
  * paper's comparison: correct for arbitrary updates, but with the
  * polynomial intermediate-view blowup in both space and time that CROWN is
  * designed to avoid.
  *
  * Views are projected onto (output ∪ still-needed join attributes), the
  * usual projection pushdown. Result deltas are emitted under set semantics
  * (count 0↔1 at the root view).
  */
final class StandardIvm(val cq: CQ,
                        maxOpsPerUpdate: Long = Long.MaxValue) extends IncrementalEngine {
  override def name: String = "StandardIVM"

  private val n = cq.atoms.size
  private val y = cq.output

  // viewAttrs(i) for i in 0..n-1: attrs of V_{i+1} (0-based levels)
  private val viewAttrs: Array[Vector[String]] = {
    val later = Array.fill(n)(Set.empty[String])
    var acc = Set.empty[String]
    for (i <- (n - 1) to 0 by -1) { later(i) = acc; acc ++= cq.atoms(i).attrs }
    val needed = (i: Int) => y.toSet ++ later(i)
    Array.tabulate(n) { i =>
      val upTo = cq.atoms.take(i + 1).flatMap(_.attrs).distinct
      if (i == n - 1) y else upTo.filter(needed(i).contains).toVector
    }
  }

  // join attrs J_i between V_{i-1} and atom a_i (level i >= 1)
  private val joinAttrs: Array[Vector[String]] =
    Array.tabulate(n)(i =>
      if (i == 0) Vector.empty
      else viewAttrs(i - 1).filter(cq.atoms(i).attrs.contains))

  // projections
  private val viewJoinIdx: Array[Array[Int]] = // viewAttrs(i-1) -> J_i  (slot i)
    Array.tabulate(n)(i => if (i == 0) Array.empty[Int]
                           else Tup.projIdx(viewAttrs(i - 1), joinAttrs(i)))
  private val atomJoinIdx: Array[Array[Int]] = // atom(i) attrs -> J_i
    Array.tabulate(n)(i => if (i == 0) Array.empty[Int]
                           else Tup.projIdx(cq.atoms(i).attrs, joinAttrs(i)))
  private val mergeFromView: Array[Array[Int]] = // positions in viewAttrs(i-1), -1 if from atom
    Array.tabulate(n) { i =>
      viewAttrs(i).map(a => if (i > 0) viewAttrs(i - 1).indexOf(a) else -1).toArray
    }
  private val mergeFromAtom: Array[Array[Int]] =
    Array.tabulate(n) { i => viewAttrs(i).map(cq.atoms(i).attrs.indexOf).toArray }
  private val atomProj0: Array[Int] = Tup.projIdx(cq.atoms(0).attrs, viewAttrs(0))

  // state: base relations + per-level index, views + per-level next-join index
  private val base: Array[mutable.HashSet[T]] = Array.fill(n)(mutable.HashSet.empty)
  private val baseIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] =
    Array.fill(n)(mutable.HashMap.empty)
  private val view: Array[mutable.HashMap[T, Int]] = Array.fill(n)(mutable.HashMap.empty)
  private val viewIdx: Array[mutable.HashMap[T, mutable.HashMap[T, Int]]] =
    Array.fill(n)(mutable.HashMap.empty) // view(i) keyed by J_{i+1}

  private val atomPos: Map[String, Int] = cq.atoms.zipWithIndex.map { case (a, i) => a.name -> i }.toMap
  private var ops = 0L
  private var opsAtUpdateStart = 0L
  override def workOps: Long = ops

  @inline private def tick(): Unit = {
    ops += 1
    if (ops - opsAtUpdateStart > maxOpsPerUpdate)
      throw new BudgetExceeded(name, maxOpsPerUpdate)
  }

  @inline private def merge(i: Int, v: T, t: T): T = {
    val fv = mergeFromView(i); val fa = mergeFromAtom(i)
    val a = new Array[AnyRef](fv.length)
    var k = 0
    while (k < fv.length) {
      a(k) = if (fv(k) >= 0) v.ref(fv(k)) else t.ref(fa(k))
      k += 1
    }
    new Tup(a)
  }

  /** Apply a batch of (tuple, signed count) to view level i, maintaining the
    * next-join index; returns the set-semantics deltas at the last level.
    */
  private def applyToView(i: Int, delta: Iterable[(T, Int)], emit: T => Unit): Long = {
    var emitted = 0L
    for ((m, c) <- delta) {
      tick()
      val old = view(i).getOrElse(m, 0)
      val nw = old + c
      if (nw == 0) view(i).remove(m) else view(i)(m) = nw
      if (i < n - 1) {
        val k = Tup.proj(m, viewNextJoinIdx(i))
        val bucket = viewIdx(i).getOrElseUpdate(k, mutable.HashMap.empty)
        if (nw == 0) { bucket.remove(m); if (bucket.isEmpty) viewIdx(i).remove(k) }
        else bucket(m) = nw
      } else {
        if (old == 0 && nw > 0) { emit(m); emitted += 1 }
        else if (old > 0 && nw == 0) { emit(m); emitted += 1 }
      }
    }
    emitted
  }

  // precompute view(i) -> J_{i+1} projection to avoid recompute in hot loop
  private val viewNextJoinIdx: Array[Array[Int]] =
    Array.tabulate(n)(i => if (i >= n - 1) Array.empty[Int]
                           else Tup.projIdx(viewAttrs(i), joinAttrs(i + 1)))

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    opsAtUpdateStart = ops
    val j = atomPos.getOrElse(u.rel, throw new IllegalArgumentException(u.rel))
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return 0L
    val sign = if (u.isInsert) 1 else -1
    if (u.isInsert) { if (!base(j).add(u.t)) return 0L }
    else { if (!base(j).remove(u.t)) return 0L }
    locally { // base index
      val k = Tup.proj(u.t, atomJoinIdx(j))
      if (u.isInsert) baseIdx(j).getOrElseUpdate(k, mutable.HashSet.empty) += u.t
      else baseIdx(j).get(k).foreach { s => s -= u.t; if (s.isEmpty) baseIdx(j).remove(k) }
    }
    // delta at level j
    var delta: mutable.ArrayBuffer[(T, Int)] = mutable.ArrayBuffer.empty
    if (j == 0) delta += ((Tup.proj(u.t, atomProj0), sign))
    else {
      val k = Tup.proj(u.t, atomJoinIdx(j))
      viewIdx(j - 1).get(k).foreach { bucket =>
        for ((v, c) <- bucket) { delta += ((merge(j, v, u.t), c * sign)); tick() }
      }
    }
    var emitted = 0L
    var i = j
    while (i < n) {
      if (i > j) {
        val next = mutable.ArrayBuffer.empty[(T, Int)]
        for ((m, c) <- delta) {
          val k = Tup.proj(m, viewJoinIdx(i))
          baseIdx(i).get(k).foreach { set =>
            for (t2 <- set) { next += ((merge(i, m, t2), c)); tick() }
          }
        }
        delta = next
      }
      // collapse multiplicities of identical tuples before applying
      val grouped = delta.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0)
      emitted += applyToView(i,
        if (i == n - 1 && cq.resultFilter.isDefined)
          grouped.view.filterKeys(m => cq.resultFilter.get(m)).toMap
        else grouped,
        emit)
      i += 1
    }
    emitted
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    val it = view(n - 1).keysIterator
    var go = true
    while (go && it.hasNext) go = cb(it.next())
  }

  override def spaceEntries: Long =
    base.map(_.size.toLong).sum + view.map(_.size.toLong).sum
}
