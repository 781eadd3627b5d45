package repro.baseline

import repro.core.{CQ, IncrementalEngine, Tup, Upd}
import repro.core.Tup.T
import scala.collection.mutable

/** Higher-order IVM in the DBToaster mold (§2, [4]): for a chain-shaped plan
  * over atoms `a_1..a_n`, materialize *both* the prefix views
  * `P_i = a_1 ⋈ ... ⋈ a_i` and the suffix views `S_i = a_i ⋈ ... ⋈ a_n`
  * (each projected to output ∪ linking attributes). These are exactly the
  * first-order delta queries of each relation: the delta of an update
  * `t → a_j` is read off as `P_{j-1} ⋈ t ⋈ S_{j+1}` with two index lookups —
  * DBToaster's fast delta emission — while *maintaining* the delta views
  * costs the same polynomial work/space that makes HIVM blow up on join-heavy
  * queries (the behaviour Figs 7/8/12 show). Result counts are kept for
  * set-semantics emission and full enumeration.
  *
  * Scope note (documented in DESIGN.md): this is depth-1 HIVM specialized to
  * the chain/star plans of the benchmark queries, not a full recursive
  * DBToaster compiler.
  */
final class Hivm(val cq: CQ,
                 maxOpsPerUpdate: Long = Long.MaxValue) extends IncrementalEngine {
  override def name: String = "HIVM"

  private val n = cq.atoms.size
  private val y = cq.output

  private def chainAttrs(idxs: Seq[Int], outside: Seq[Int]): Vector[String] = {
    val inside = idxs.flatMap(i => cq.atoms(i).attrs).distinct
    val need = y.toSet ++ outside.flatMap(i => cq.atoms(i).attrs)
    inside.filter(need.contains).toVector
  }

  // prefix P_i over atoms [0..i]; suffix S_i over atoms [i..n-1]
  private val prefAttrs: Array[Vector[String]] =
    Array.tabulate(n)(i => chainAttrs(0 to i, (i + 1) until n))
  private val sufAttrs: Array[Vector[String]] =
    Array.tabulate(n)(i => chainAttrs(i until n, 0 until i))

  private final class Chain(attrsOf: Int => Vector[String], forward: Boolean) {
    // level i state; for forward chains level i covers atoms 0..i, for
    // backward chains level i covers atoms i..n-1
    val view: Array[mutable.HashMap[T, Int]] = Array.fill(n)(mutable.HashMap.empty)
    val idx: Array[mutable.HashMap[T, mutable.HashMap[T, Int]]] =
      Array.fill(n)(mutable.HashMap.empty)
    // join attrs between level (i -/+ 1) and atom i
    val joinAttrs: Array[Vector[String]] = Array.tabulate(n) { i =>
      val prev = if (forward) i - 1 else i + 1
      if (prev < 0 || prev >= n) Vector.empty
      else attrsOf(prev).filter(cq.atoms(i).attrs.contains)
    }
    val viewJoinIdx: Array[Array[Int]] = Array.tabulate(n) { i =>
      val prev = if (forward) i - 1 else i + 1
      if (prev < 0 || prev >= n) Array.empty[Int]
      else Tup.projIdx(attrsOf(prev), joinAttrs(i))
    }
    val atomJoinIdx: Array[Array[Int]] = Array.tabulate(n) { i =>
      if (joinAttrs(i).isEmpty) Array.empty[Int]
      else Tup.projIdx(cq.atoms(i).attrs, joinAttrs(i))
    }
    val mergeFromView: Array[Array[Int]] = Array.tabulate(n) { i =>
      val prev = if (forward) i - 1 else i + 1
      attrsOf(i).map(a => if (prev >= 0 && prev < n) attrsOf(prev).indexOf(a) else -1).toArray
    }
    val mergeFromAtom: Array[Array[Int]] =
      Array.tabulate(n)(i => attrsOf(i).map(cq.atoms(i).attrs.indexOf).toArray)
    val selfProj: Array[Array[Int]] = Array.tabulate(n) { i =>
      // projection of a bare atom tuple at the chain's first level
      val first = if (forward) i == 0 else i == n - 1
      if (first) Tup.projIdx(cq.atoms(i).attrs, attrsOf(i)) else Array.empty[Int]
    }
  }

  private val pref = new Chain(prefAttrs, forward = true)
  private val suf = new Chain(sufAttrs, forward = false)

  private val base: Array[mutable.HashSet[T]] = Array.fill(n)(mutable.HashSet.empty)
  private val baseIdxPref: Array[mutable.HashMap[T, mutable.HashSet[T]]] =
    Array.fill(n)(mutable.HashMap.empty) // atom i keyed by pref.joinAttrs(i)
  private val baseIdxSuf: Array[mutable.HashMap[T, mutable.HashSet[T]]] =
    Array.fill(n)(mutable.HashMap.empty)

  // linking attrs for delta emission at update site j:
  //   merged(P_{j-1}, t) joined with S_{j+1}
  private val emitLeftAttrs: Array[Vector[String]] = Array.tabulate(n) { j =>
    val left = (if (j > 0) prefAttrs(j - 1) else Vector.empty) ++
      cq.atoms(j).attrs.filterNot(a => j > 0 && prefAttrs(j - 1).contains(a))
    left
  }
  private val emitJoin: Array[Vector[String]] = Array.tabulate(n) { j =>
    if (j == n - 1) Vector.empty
    else sufAttrs(j + 1).filter(emitLeftAttrs(j).contains)
  }

  private val result = mutable.HashMap.empty[T, Long]
  private val atomPos: Map[String, Int] = cq.atoms.zipWithIndex.map { case (a, i) => a.name -> i }.toMap
  private var ops = 0L
  private var opsAtUpdateStart = 0L
  override def workOps: Long = ops

  @inline private def tick(): Unit = {
    ops += 1
    if (ops - opsAtUpdateStart > maxOpsPerUpdate)
      throw new BudgetExceeded(name, maxOpsPerUpdate)
  }

  @inline private def mergeT(attrs: Vector[String], srcAttrs: Vector[String], src: T,
                             srcAttrs2: Vector[String], src2: T): T = {
    val a = new Array[AnyRef](attrs.length)
    var i = 0
    while (i < attrs.length) {
      val p = srcAttrs.indexOf(attrs(i))
      a(i) = if (p >= 0) src.ref(p) else src2.ref(srcAttrs2.indexOf(attrs(i)))
      i += 1
    }
    new Tup(a)
  }

  /** Propagate a signed delta along one chain starting at level `j`. */
  private def maintain(c: Chain, forward: Boolean, j: Int, t: T, sign: Int,
                       bIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]]): Unit = {
    var delta = mutable.ArrayBuffer.empty[(T, Int)]
    val prev = if (forward) j - 1 else j + 1
    if (prev < 0 || prev >= n) delta += ((Tup.proj(t, c.selfProj(j)), sign))
    else {
      val k = Tup.proj(t, c.atomJoinIdx(j))
      c.idx(prev).get(k).foreach { bucket =>
        for ((v, cc) <- bucket) {
          tick()
          delta += ((mergeVA(c, j, v, t), cc * sign))
        }
      }
    }
    var i = j
    while (i >= 0 && i < n) {
      if (i != j) {
        val next = mutable.ArrayBuffer.empty[(T, Int)]
        for ((m, cc) <- delta) {
          val k = Tup.proj(m, c.viewJoinIdx(i))
          bIdx(i).get(k).foreach { set =>
            for (t2 <- set) { tick(); next += ((mergeVA(c, i, m, t2), cc)) }
          }
        }
        delta = next
      }
      val grouped = delta.groupMapReduce(_._1)(_._2)(_ + _).filter(_._2 != 0)
      for ((m, cc) <- grouped) {
        tick()
        val old = c.view(i).getOrElse(m, 0)
        val nw = old + cc
        if (nw == 0) c.view(i).remove(m) else c.view(i)(m) = nw
        // index by the join attrs of the NEXT level in chain direction
        val nl = if (forward) i + 1 else i - 1
        if (nl >= 0 && nl < n) {
          val k = Tup.proj(m, Tup.projIdx(
            if (forward) prefAttrs(i) else sufAttrs(i), c.joinAttrs(nl)))
          val bucket = c.idx(i).getOrElseUpdate(k, mutable.HashMap.empty)
          if (nw == 0) { bucket.remove(m); if (bucket.isEmpty) c.idx(i).remove(k) }
          else bucket(m) = nw
        }
      }
      delta = mutable.ArrayBuffer.from(grouped)
      i = if (forward) i + 1 else i - 1
    }
  }

  @inline private def mergeVA(c: Chain, i: Int, v: T, t: T): T = {
    val fv = c.mergeFromView(i); val fa = c.mergeFromAtom(i)
    val a = new Array[AnyRef](fv.length)
    var k = 0
    while (k < fv.length) { a(k) = if (fv(k) >= 0) v.ref(fv(k)) else t.ref(fa(k)); k += 1 }
    new Tup(a)
  }

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    opsAtUpdateStart = ops
    val j = atomPos.getOrElse(u.rel, throw new IllegalArgumentException(u.rel))
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return 0L
    if (u.isInsert) { if (!base(j).add(u.t)) return 0L }
    else { if (!base(j).remove(u.t)) return 0L }
    val sign = if (u.isInsert) 1 else -1
    // base indexes for both chains
    locally {
      val kp = Tup.proj(u.t, pref.atomJoinIdx(j))
      val ks = Tup.proj(u.t, suf.atomJoinIdx(j))
      if (u.isInsert) {
        baseIdxPref(j).getOrElseUpdate(kp, mutable.HashSet.empty) += u.t
        baseIdxSuf(j).getOrElseUpdate(ks, mutable.HashSet.empty) += u.t
      } else {
        baseIdxPref(j).get(kp).foreach { s => s -= u.t; if (s.isEmpty) baseIdxPref(j).remove(kp) }
        baseIdxSuf(j).get(ks).foreach { s => s -= u.t; if (s.isEmpty) baseIdxSuf(j).remove(ks) }
      }
    }
    // 1. delta emission via P_{j-1} ⋈ t ⋈ S_{j+1} (the HIVM fast path)
    var emitted = 0L
    val leftTuples = mutable.ArrayBuffer.empty[(T, Int)] // over emitLeftAttrs(j)
    if (j == 0) leftTuples += ((u.t, 1))
    else {
      val k = Tup.proj(u.t, pref.atomJoinIdx(j))
      pref.idx(j - 1).get(k).foreach { bucket =>
        for ((v, c) <- bucket) {
          tick()
          leftTuples += ((mergeT(emitLeftAttrs(j), prefAttrs(j - 1), v,
            cq.atoms(j).attrs, u.t), c))
        }
      }
    }
    val emitAcc = mutable.HashMap.empty[T, Long]
    val leftAttrs = if (j == 0) cq.atoms(0).attrs else emitLeftAttrs(j)
    for ((lt, lc) <- leftTuples) {
      if (j == n - 1) {
        val out = Tup(y.map(a => lt(leftAttrs.indexOf(a))): _*)
        emitAcc(out) = emitAcc.getOrElse(out, 0L) + lc
      } else {
        // the suffix index at level j+1 is keyed by its join attrs with atom
        // j; any extra attrs shared with the whole left side are checked here
        val idxKey = suf.joinAttrs(j)
        val k = Tup(idxKey.map(a => lt(leftAttrs.indexOf(a))): _*)
        val extra = emitJoin(j).filterNot(idxKey.contains)
        suf.idx(j + 1).get(k).foreach { bucket =>
          for ((sv, sc) <- bucket) {
            tick()
            val consistent = extra.forall(a =>
              sv(sufAttrs(j + 1).indexOf(a)) == lt(leftAttrs.indexOf(a)))
            if (consistent) {
              val out = Tup(y.map { a =>
                val p = leftAttrs.indexOf(a)
                if (p >= 0) lt(p) else sv(sufAttrs(j + 1).indexOf(a))
              }: _*)
              emitAcc(out) = emitAcc.getOrElse(out, 0L) + lc * sc
            }
          }
        }
      }
    }
    for ((out, c) <- emitAcc if c != 0 && cq.resultFilter.forall(_(out))) {
      val old = result.getOrElse(out, 0L)
      val nw = old + c * sign
      if (nw == 0) result.remove(out) else result(out) = nw
      if ((old == 0 && nw > 0) || (old > 0 && nw == 0)) { emit(out); emitted += 1 }
    }
    // 2. maintain both chains (the higher-order views)
    maintain(pref, forward = true, j, u.t, sign, baseIdxPref)
    maintain(suf, forward = false, j, u.t, sign, baseIdxSuf)
    emitted
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    val it = result.keysIterator
    var go = true
    while (go && it.hasNext) go = cb(it.next())
  }

  override def spaceEntries: Long =
    base.map(_.size.toLong).sum + pref.view.map(_.size.toLong).sum +
      suf.view.map(_.size.toLong).sum + result.size
}
