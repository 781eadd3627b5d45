package repro.core

import repro.core.Tup.T
import scala.collection.mutable

/** CROWN: change propagation without joins (§4–§5 of the paper).
  *
  * The engine is compiled from a free-connex generalized join tree. Every
  * node `e` maintains
  *
  *   - its relation tuples with a counter `count[t]` = number of children
  *     `c` with `t[key(c)] ∈ V_p(c)`; `t ∈ V_s(e)` iff the counter is full
  *     (the "horizontal derivation counting" of Algorithm 3);
  *   - `V_s(e)` grouped by `key(e)` into dense groups (arrays of tuple
  *     states) that enumeration scans without an iterator. The group keys
  *     are the projection view `V_p(e) = π_key(e) V_s(e)`, and a group's
  *     size is its key's derivation count (Algorithm 2);
  *   - for enumeration at nodes with non-output attributes, the counted
  *     distinct output-projections per key (Algorithm 5 lines 1–3);
  *   - the live view `V_l(e) = π_{e∩y} Q(D)` with per-child hash indexes
  *     (§5.2), kept where it is read and maintained via Lemma 5.5 from the
  *     distinct `e∩y` projections of the delta: delta enumeration records a
  *     node's projection once per visit that reaches at least one result,
  *     not once per result.
  *
  * Updates run R-Update / S-Update / P-Update along the leaf-to-root path
  * (Algorithms 2–4). Delta enumeration finds witness tuples (Def 5.6) on the
  * projection-level view deltas and enumerates each `Q(D ⋉ t')` by joining
  * the witness with the live views up the path and running FullEnum on the
  * disjoint subtrees (Algorithm 6). Insertions enumerate on the post-update
  * state with pre-update live views; deletions plan the propagation as a dry
  * run, enumerate on the pre-deletion state excluding the dying projections,
  * then apply the mutations — the time-reversed mirror, realizing the
  * disjoint union of Lemma 5.7.
  */
final class CrownEngine(val cq: CQ, val treeSpec: JTNode) extends IncrementalEngine {

  override def name: String = "CROWN"

  private val y: Vector[String] = cq.output
  private val ySet: Set[String] = y.toSet
  require(y.nonEmpty, "CROWN needs at least one output attribute")

  // ---------------------------------------------------------------- nodes

  /** A tuple of a node's relation, its counter, and its slot in its
    * `V_s` group while it is in `V_s` (else -1).
    */
  private final class TupState(val t: T, var count: Int) {
    var pos: Int = -1
  }

  /** The `V_s` tuples of one node under one key, packed densely: adding and
    * removing are O(1) (removal moves the last state into the gap).
    */
  private final class Group {
    var items = new Array[TupState](2)
    var size = 0
    def add(s: TupState): Unit = {
      if (size == items.length) items = java.util.Arrays.copyOf(items, 2 * size)
      s.pos = size; items(size) = s; size += 1
    }
    def remove(s: TupState): Unit = {
      size -= 1
      val last = items(size)
      items(s.pos) = last; last.pos = s.pos
      items(size) = null; s.pos = -1
    }
  }

  private final class Node(val id: Int, val attrs: Vector[String],
                           val atom: Option[Atom]) {
    val isGen: Boolean = atom.isEmpty
    var parent: Node = _
    var children: Array[Node] = Array.empty
    var childPos: Int = -1 // position of this node among parent's children

    val yAttrs: Vector[String] = attrs.filter(ySet.contains)
    val hasY: Boolean = yAttrs.nonEmpty
    val mixed: Boolean = attrs.exists(a => !ySet.contains(a))
    def isRoot: Boolean = parent == null
    def isLeaf: Boolean = children.isEmpty

    // compiled projections (filled in init)
    var keyAttrs: Vector[String] = Vector.empty // attrs ∩ parent, parent order
    var keyIdx: Array[Int] = _                  // attrs -> keyAttrs
    var yIdx: Array[Int] = _                    // attrs -> yAttrs
    var yOut: Array[Int] = _                    // yAttrs -> output slots
    var linkAttrs: Vector[String] = Vector.empty // attrs ∩ parent ∩ y, parent order
    var linkUpIdx: Array[Int] = _               // yAttrs -> linkAttrs
    var childKeyIdx: Array[Array[Int]] = _      // per child: attrs -> key(child)
    var childKeyFromY: Array[Array[Int]] = _    // per child: yAttrs -> key(child), if key ⊆ y
    var liveKeyIdx: Array[Array[Int]] = _       // per child: yAttrs -> linkAttrs(child)
    var enumKids: Array[Node] = Array.empty     // children whose subtree adds output attrs
    var depth: Int = 0
    var isLive: Boolean = false                 // keeps V_l (see liveNodes)

    // state
    val tuples = mutable.HashMap.empty[T, TupState]
    var childIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _ // input nodes
    val vsByKey = mutable.HashMap.empty[T, Group]                   // non-root; keys = V_p
    val projCnt = mutable.HashMap.empty[T, Int]                     // hasY
    val projByKey = mutable.HashMap.empty[T, mutable.HashMap[T, Int]] // mixed, non-root, hasY
    val live = mutable.HashSet.empty[T]                             // internal, non-root, hasY
    var liveIdx: Array[mutable.HashMap[T, mutable.HashSet[T]]] = _  // per hasY child
  }

  // ---------------------------------------------------------- compilation

  private val nodes = mutable.ArrayBuffer.empty[Node]
  private val root: Node = {
    def build(spec: JTNode): Node = {
      val n = new Node(nodes.length, spec.attrs, spec.atomName.map(cq.atomByName))
      nodes += n
      n.children = spec.children.map(build).toArray
      for ((c, i) <- n.children.zipWithIndex) { c.parent = n; c.childPos = i }
      n
    }
    build(treeSpec)
  }
  require(root.hasY, s"root of $treeSpec carries no output attribute")

  private val atomNode: Map[String, Node] =
    nodes.filter(_.atom.isDefined).map(n => n.atom.get.name -> n).toMap

  private val subtreeY: Array[Set[String]] = {
    val a = new Array[Set[String]](nodes.length)
    def rec(n: Node): Set[String] = {
      val s = n.yAttrs.toSet ++ n.children.flatMap(rec(_))
      a(n.id) = s; s
    }
    rec(root); a
  }

  // pass 1: key/link attribute sets (parent-order canonical) for every node
  for (n <- nodes) {
    n.yIdx = Tup.projIdx(n.attrs, n.yAttrs)
    n.yOut = Tup.projIdx(y, n.yAttrs) // positions of yAttrs inside the output
    if (!n.isRoot) {
      n.keyAttrs = n.parent.attrs.filter(n.attrs.contains)
      n.keyIdx = Tup.projIdx(n.attrs, n.keyAttrs)
      n.linkAttrs = n.parent.attrs.filter(a => n.attrs.contains(a) && ySet.contains(a))
      if (n.hasY) n.linkUpIdx = Tup.projIdx(n.yAttrs, n.linkAttrs)
    }
  }
  // pass 2: projections that read the children's key/link attrs
  for (n <- nodes) {
    n.childKeyIdx = n.children.map(c => Tup.projIdx(n.attrs, c.keyAttrs))
    n.childKeyFromY = n.children.map(c =>
      if (c.keyAttrs.forall(ySet.contains)) Tup.projIdx(n.yAttrs, c.keyAttrs) else null)
    if (n.hasY)
      n.liveKeyIdx = n.children.map(c =>
        if (c.hasY) Tup.projIdx(n.yAttrs, c.linkAttrs) else null)
    n.enumKids = n.children.filter(c => (subtreeY(c.id) -- n.attrs).nonEmpty)
    if (!n.isGen) n.childIdx = n.children.map(_ => mutable.HashMap.empty[T, mutable.HashSet[T]])
    n.liveIdx = n.children.map(c =>
      if (n.hasY && c.hasY) mutable.HashMap.empty[T, mutable.HashSet[T]] else null)
  }
  for (n <- nodes if !n.isRoot) n.depth = n.parent.depth + 1
  for (n <- nodes; c <- n.enumKids) {
    require(c.hasY, s"enum child ${c.attrs} carries no output attribute (unsupported tree)")
    require(n.childKeyFromY(c.childPos) != null,
      s"join key into output-bearing child ${c.attrs} is not all-output — tree not enumerable")
  }

  /** Leaf-to-root path per input node. */
  private val pathOf: Map[String, Array[Node]] = atomNode.map { case (a, n) =>
    a -> Iterator.iterate(n)(_.parent).takeWhile(_ != null).toArray
  }

  /** Non-root nodes whose live view is read, in top-down order for deletion
    * maintenance. A view is read only through `liveIdx`, so the node needs an
    * output-carrying child. It must also be visited by enumeration: each node
    * on its root path is in its parent's `enumKids`. Below a child `c` that
    * is not, all output attributes lie in `c`'s parent and hence (running
    * intersection) in every node between; so a projection that is new (or
    * dying) there makes every parent projection extending it new (dying) too.
    * No witness arises in `c`'s subtree and no S-join passes through it.
    */
  private val liveNodes: Array[Node] = {
    def visited(n: Node): Boolean = n.isRoot || (n.parent.enumKids.contains(n) && visited(n.parent))
    nodes.filter(n => !n.isRoot && n.hasY && n.children.exists(_.hasY) && visited(n))
      .sortBy(_.depth).toArray
  }
  liveNodes.foreach(_.isLive = true)

  // -------------------------------------------------------------- deltas

  private final class NodeDelta {
    val projs = mutable.ArrayBuffer.empty[T]
    val projSet = mutable.HashSet.empty[T]
    def clear(): Unit = { projs.clear(); projSet.clear() }
  }
  private val nodeDeltas: Array[NodeDelta] = Array.fill(nodes.length)(new NodeDelta)
  private val liveBuf: Array[mutable.HashSet[T]] =
    Array.fill(nodes.length)(mutable.HashSet.empty[T])

  private var ops: Long = 0L
  override def workOps: Long = ops

  // --------------------------------------------------------- propagation

  /** Insert-side S-Update/P-Update cascade: `st` just entered `V_s(e)`. */
  private def enterVs(e: Node, st: TupState): Unit = {
    val tt = st.t
    val d = nodeDeltas(e.id)
    ops += 1
    if (e.hasY) {
      val yp = Tup.proj(tt, e.yIdx)
      val pc = e.projCnt.getOrElse(yp, 0)
      e.projCnt(yp) = pc + 1
      if (pc == 0) {
        d.projs += yp; d.projSet += yp
        if (e.isRoot) rootLiveAdd(yp)
      }
      if (e.mixed && !e.isRoot) {
        val k = Tup.proj(tt, e.keyIdx)
        val m = e.projByKey.getOrElseUpdate(k, mutable.HashMap.empty)
        m(yp) = m.getOrElse(yp, 0) + 1
      }
    }
    if (!e.isRoot) {
      val k = Tup.proj(tt, e.keyIdx)
      var g = e.vsByKey.getOrElse(k, null)
      if (g == null) { g = new Group; e.vsByKey(k) = g }
      g.add(st)
      if (g.size == 1) pUpdateInsert(e.parent, e, k)
    }
  }

  /** Insert-side P-Update (Algorithm 3): key `k` entered `V_p(child)`. */
  private def pUpdateInsert(p: Node, child: Node, k: T): Unit = {
    if (p.isGen) {
      val st = p.tuples.getOrElseUpdate(k, new TupState(k, 0))
      st.count += 1; ops += 1
      if (st.count == p.children.length) enterVs(p, st)
    } else {
      p.childIdx(child.childPos).get(k) match {
        case None => ()
        case Some(set) =>
          for (tt <- set) {
            val st = p.tuples(tt)
            st.count += 1; ops += 1
            if (st.count == p.children.length) enterVs(p, st)
          }
      }
    }
  }

  private def processInsert(e0: Node, t0: T, emit: T => Unit): Long = {
    if (e0.tuples.contains(t0)) return 0L // ineffective under set semantics
    clearBuffers(e0)
    // R-Update (Algorithm 4)
    val st = new TupState(t0, 0)
    var i = 0
    while (i < e0.children.length) {
      val c = e0.children(i)
      val k = Tup.proj(t0, e0.childKeyIdx(i))
      e0.childIdx(i).getOrElseUpdate(k, mutable.HashSet.empty) += t0
      if (c.vsByKey.contains(k)) st.count += 1
      ops += 1
      i += 1
    }
    e0.tuples(t0) = st
    if (st.count == e0.children.length) enterVs(e0, st)
    val n = enumerateDeltas(e0, emit, isInsert = true)
    applyLiveInserts()
    n
  }

  /** One level of the deletion cascade: the states of the tuples leaving
    * `V_s(node)` and the `V_p` keys whose derivation count drops to zero.
    */
  private final class DelLevel(val node: Node) {
    val leaving = mutable.ArrayBuffer.empty[TupState]
    val removedKeys = mutable.ArrayBuffer.empty[T]
  }

  /** Calls `f(p, n)` once per distinct projection `p` through `idx` of the
    * leaving tuples, `n` being how many of them project to `p`. A single
    * leaving tuple, the common case, needs no map.
    */
  private def forEachProj(leaving: mutable.ArrayBuffer[TupState], idx: Array[Int])
                         (f: (T, Int) => Unit): Unit =
    if (leaving.length == 1) f(Tup.proj(leaving(0).t, idx), 1)
    else {
      val counts = mutable.HashMap.empty[T, Int]
      for (st <- leaving) {
        val p = Tup.proj(st.t, idx)
        counts(p) = counts.getOrElse(p, 0) + 1
      }
      counts.foreachEntry(f)
    }

  /** Dry-run deletion propagation: computes per-node view deltas (recorded
    * into `nodeDeltas` for witness detection) without mutating any view.
    * Returns the cascade levels, or None if `t0` is absent (ineffective).
    */
  private def planDelete(e0: Node, t0: T): Option[mutable.ArrayBuffer[DelLevel]] = {
    val st0 = e0.tuples.getOrElse(t0, null)
    if (st0 == null) return None
    val levels = mutable.ArrayBuffer.empty[DelLevel]
    var lv = new DelLevel(e0)
    if (st0.count == e0.children.length) lv.leaving += st0
    var continue = lv.leaving.nonEmpty
    while (continue) {
      val e = lv.node
      levels += lv
      val d = nodeDeltas(e.id)
      if (e.hasY)
        forEachProj(lv.leaving, e.yIdx) { (yp, n) =>
          if (e.projCnt(yp) == n) { d.projs += yp; d.projSet += yp }
        }
      if (e.isRoot) continue = false
      else {
        val removed = lv.removedKeys
        forEachProj(lv.leaving, e.keyIdx) { (k, n) =>
          if (e.vsByKey(k).size == n) removed += k
        }
        val p = e.parent
        val next = new DelLevel(p)
        for (k <- removed) {
          if (p.isGen) {
            val pst = p.tuples(k)
            if (pst.count == p.children.length) next.leaving += pst
          } else {
            for (set <- p.childIdx(e.childPos).get(k); tt <- set) {
              val pst = p.tuples(tt)
              if (pst.count == p.children.length) next.leaving += pst
            }
          }
        }
        if (next.leaving.isEmpty) continue = false
        lv = next
      }
    }
    Some(levels)
  }

  /** Mutate all views according to a deletion plan (the cascade recorded by
    * [[planDelete]]), including removing `t0` from the base relation.
    */
  private def applyDelete(levels: mutable.ArrayBuffer[DelLevel], e0: Node, t0: T): Unit = {
    // base relation removal
    var i = 0
    while (i < e0.children.length) {
      val k = Tup.proj(t0, e0.childKeyIdx(i))
      e0.childIdx(i).get(k).foreach { set =>
        set -= t0
        if (set.isEmpty) e0.childIdx(i).remove(k)
      }
      i += 1
      ops += 1
    }
    e0.tuples.remove(t0)
    for (lv <- levels) {
      val e = lv.node
      if (e.hasY) {
        forEachProj(lv.leaving, e.yIdx) { (yp, n) =>
          val pc = e.projCnt(yp)
          if (pc == n) {
            e.projCnt.remove(yp)
            if (e.isRoot) rootLiveRemove(yp)
          } else e.projCnt(yp) = pc - n
        }
        if (e.mixed && !e.isRoot) {
          for (st <- lv.leaving) {
            val k = Tup.proj(st.t, e.keyIdx)
            val yp = Tup.proj(st.t, e.yIdx)
            val m = e.projByKey(k)
            val c = m(yp)
            if (c == 1) { m.remove(yp); if (m.isEmpty) e.projByKey.remove(k) }
            else m(yp) = c - 1
          }
        }
      }
      if (!e.isRoot) {
        for (st <- lv.leaving) {
          val k = Tup.proj(st.t, e.keyIdx)
          val g = e.vsByKey(k)
          g.remove(st)
          if (g.size == 0) e.vsByKey.remove(k)
        }
        val p = e.parent
        for (k <- lv.removedKeys) {
          if (p.isGen) {
            val pst = p.tuples(k)
            pst.count -= 1; ops += 1
            if (pst.count == 0) p.tuples.remove(k)
          } else {
            for (set <- p.childIdx(e.childPos).get(k); tt <- set) {
              p.tuples(tt).count -= 1; ops += 1
            }
          }
        }
      }
    }
  }

  private def processDelete(e0: Node, t0: T, emit: T => Unit): Long = {
    clearBuffers(e0)
    planDelete(e0, t0) match {
      case None => 0L
      case Some(levels) =>
        val n = enumerateDeltas(e0, emit, isInsert = false) // pre-deletion state
        applyDelete(levels, e0, t0)
        applyLiveDeletes()
        n
    }
  }

  override def processUpdate(u: Upd)(emit: T => Unit): Long = {
    val node = atomNode.getOrElse(u.rel,
      throw new IllegalArgumentException(s"unknown relation ${u.rel}"))
    if (cq.atomFilters.get(u.rel).exists(f => !f(u.t))) return 0L // §7.2 selection
    if (u.isInsert) processInsert(node, u.t, emit) else processDelete(node, u.t, emit)
  }

  /** Resets the per-update buffers. A live buffer is dirty iff it is
    * non-empty, so only the buffers the last update wrote are cleared
    * (clearing is O(table capacity), which never shrinks).
    */
  private def clearBuffers(e0: Node): Unit = {
    var n = e0
    while (n != null) { nodeDeltas(n.id).clear(); n = n.parent }
    var i = 0
    while (i < liveNodes.length) {
      val b = liveBuf(liveNodes(i).id)
      if (b.nonEmpty) b.clear()
      i += 1
    }
  }

  // --------------------------------------------------------- enumeration

  private val slots = new Array[AnyRef](y.length)

  @inline private def writeProj(e: Node, proj: T): Unit = {
    var i = 0
    while (i < e.yOut.length) { slots(e.yOut(i)) = proj.ref(i); i += 1 }
  }

  // Live-view candidates of delta enumeration (Lemma 5.5). Each visit of a
  // live node pushes its projection for the duration of its descent; a
  // result reaching the emit step commits the not-yet-committed part of the
  // stack into `liveBuf`. So a visit is recorded once, and only if a result
  // lies below it. Depth is at most one entry per node.
  private val visitNode = new Array[Node](nodes.length)
  private val visitProj = new Array[T](nodes.length)
  private var visitTop = 0
  private var committed = 0  // entries below this are already in liveBuf
  private var recording = false // inside enumerateDeltas, never enumerateFull
  private var inserting = false

  @inline private def visit(e: Node, proj: T): Unit = {
    writeProj(e, proj)
    if (recording && e.isLive) {
      visitNode(visitTop) = e; visitProj(visitTop) = proj; visitTop += 1
    }
  }

  @inline private def leave(e: Node): Unit =
    if (recording && e.isLive) {
      visitTop -= 1
      if (committed > visitTop) committed = visitTop
    }

  private def commitVisits(): Unit =
    while (committed < visitTop) {
      val e = visitNode(committed)
      val p = visitProj(committed)
      // On insertion a projection already live needs no buffering.
      if (!inserting || !e.live.contains(p)) liveBuf(e.id) += p
      committed += 1
    }

  /** FullEnum (Algorithm 5) descent below node `c` given the join key from
    * its parent. Mixed nodes yield their counted distinct output projections
    * (and keep descending — the enumerability condition guarantees their
    * child keys are output attributes, hence determined by the projection);
    * all-output nodes iterate V_s tuples directly. Returns false if the
    * callback stopped the enumeration.
    */
  private def enumFromKey(c: Node, key: T, cont: () => Boolean): Boolean = {
    if (c.mixed) {
      val m = c.projByKey.getOrElse(key, null)
      if (m != null) {
        val it = m.keysIterator
        while (it.hasNext) {
          val yp = it.next()
          visit(c, yp)
          val go = descendY(c, yp, -1, cont)
          leave(c)
          if (!go) return false
        }
      }
    } else {
      val g = c.vsByKey.getOrElse(key, null)
      if (g != null) {
        val items = g.items
        var i = 0
        while (i < g.size) {
          val tt = items(i).t // all-output: the tuple IS its projection
          visit(c, tt)
          val go = descendY(c, tt, -1, cont)
          leave(c)
          if (!go) return false
          i += 1
        }
      }
    }
    true
  }

  /** Nested-loop descent into `e`'s enumeration children from an output
    * projection of `e` (skipping the child at `skipPos`, used by delta
    * enumeration's subtree partition).
    */
  private def descendY(e: Node, yp: T, skipPos: Int, cont: () => Boolean): Boolean = {
    def go(ki: Int): Boolean = {
      if (ki == e.enumKids.length) cont()
      else {
        val c = e.enumKids(ki)
        if (c.childPos == skipPos) go(ki + 1)
        else enumFromKey(c, Tup.proj(yp, e.childKeyFromY(c.childPos)), () => go(ki + 1))
      }
    }
    go(0)
  }

  override def enumerateFull(cb: T => Boolean): Unit = {
    var go = true
    val emitRes = () => {
      val res = Tup.fromSlots(slots)
      if (cq.resultFilter.forall(_(res))) go = cb(res)
      go
    }
    val it = root.projCnt.keysIterator
    while (go && it.hasNext) {
      val p = it.next()
      writeProj(root, p)
      descendY(root, p, -1, emitRes)
    }
  }

  // ----------------------------------------------------- delta enumeration

  /** Enumerate `ΔQ(D, t)` from the recorded per-node view deltas: root
    * projections are witnesses outright (Corollary 5.2); a new/dead
    * projection at a non-root node is a witness iff it joins the parent's
    * live view, excluding projections changed by this very update (Def 5.6).
    */
  private def enumerateDeltas(e0: Node, emit: T => Unit, isInsert: Boolean): Long = {
    val path = pathOf(e0.atom.get.name)
    var count = 0L
    val emitRes = () => {
      commitVisits() // live views follow the unfiltered join, as at the root
      val res = Tup.fromSlots(slots)
      if (cq.resultFilter.forall(_(res))) { emit(res); count += 1 }
      true
    }
    visitTop = 0; committed = 0
    inserting = isInsert; recording = true
    try {
      var i = 0
      while (i < path.length) {
        val e = path(i)
        if (e.hasY) {
          val d = nodeDeltas(e.id)
          var pi = 0
          while (pi < d.projs.length) {
            val p = d.projs(pi)
            if (e.isRoot) {
              writeProj(e, p)
              descendY(e, p, -1, emitRes)
            } else if (witnessJoinsParentLive(e, p)) {
              enumWitness(path, i, p, emitRes)
            }
            pi += 1
          }
        }
        i += 1
      }
    } finally recording = false
    count
  }

  private def witnessJoinsParentLive(e: Node, p: T): Boolean = {
    val par = e.parent
    val link = Tup.proj(p, e.linkUpIdx)
    par.liveIdx(e.childPos).get(link) match {
      case None => false
      case Some(set) =>
        val excl = nodeDeltas(par.id).projSet
        if (excl.isEmpty) set.nonEmpty else set.exists(m => !excl.contains(m))
    }
  }

  /** Algorithm 6 for one witness `p` at `path(i)`: join the witness with the
    * (pre-update) live views up the path, then FullEnum the disjoint
    * subtrees `T_{e_i}, T_{e_j} − T_{e_{j-1}}` and emit the combinations.
    */
  private def enumWitness(path: Array[Node], i: Int, p: T, emitRes: () => Boolean): Unit = {
    val chosen = new Array[T](path.length)
    chosen(i) = p
    visit(path(i), p)

    def parts(j: Int): Boolean = {
      if (j == path.length) emitRes()
      else {
        val e = path(j)
        val skip = if (j == i) -1 else path(j - 1).childPos
        descendY(e, chosen(j), skip, () => parts(j + 1))
      }
    }

    def sLevel(j: Int): Boolean = {
      if (j == path.length) parts(i)
      else {
        val e = path(j)
        val below = path(j - 1)
        val link = Tup.proj(chosen(j - 1), below.linkUpIdx)
        e.liveIdx(below.childPos).get(link) match {
          case None => true
          case Some(set) =>
            val excl = nodeDeltas(e.id).projSet
            val it = set.iterator
            var go = true
            while (go && it.hasNext) {
              val l = it.next()
              if (!excl.contains(l)) {
                chosen(j) = l
                visit(e, l)
                go = sLevel(j + 1)
                leave(e)
              }
            }
            go
        }
      }
    }

    sLevel(i + 1)
    leave(path(i))
  }

  // ------------------------------------------------------------ live views

  private def rootLiveAdd(yp: T): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null)
        root.liveIdx(i).getOrElseUpdate(Tup.proj(yp, root.liveKeyIdx(i)),
          mutable.HashSet.empty) += yp
      i += 1
    }
  }

  private def rootLiveRemove(yp: T): Unit = {
    var i = 0
    while (i < root.children.length) {
      if (root.liveIdx(i) != null) {
        val link = Tup.proj(yp, root.liveKeyIdx(i))
        root.liveIdx(i).get(link).foreach { set =>
          set -= yp
          if (set.isEmpty) root.liveIdx(i).remove(link)
        }
      }
      i += 1
    }
  }

  /** Insertion: every enumerated delta result's projection becomes live
    * (Lemma 5.5 "only if" direction; buffered so the S-joins of the same
    * update see the pre-update live views).
    */
  private def applyLiveInserts(): Unit = {
    for (e <- liveNodes if liveBuf(e.id).nonEmpty; p <- liveBuf(e.id)) {
      if (e.live.add(p)) {
        var i = 0
        while (i < e.children.length) {
          if (e.liveIdx(i) != null)
            e.liveIdx(i).getOrElseUpdate(Tup.proj(p, e.liveKeyIdx(i)),
              mutable.HashSet.empty) += p
          i += 1
        }
      }
    }
  }

  /** Deletion: a touched projection stays live iff it is still in π_y V_s
    * and still joins the parent's live view (Lemma 5.5), checked top-down
    * so parents settle first.
    */
  private def applyLiveDeletes(): Unit = {
    for (e <- liveNodes if liveBuf(e.id).nonEmpty; p <- liveBuf(e.id)) { // top-down
      if (e.live.contains(p)) {
        val surviving = e.projCnt.contains(p) && {
          val link = Tup.proj(p, e.linkUpIdx)
          e.parent.liveIdx(e.childPos).get(link).exists(_.nonEmpty)
        }
        if (!surviving) {
          e.live.remove(p)
          var i = 0
          while (i < e.children.length) {
            if (e.liveIdx(i) != null) {
              val link = Tup.proj(p, e.liveKeyIdx(i))
              e.liveIdx(i).get(link).foreach { set =>
                set -= p
                if (set.isEmpty) e.liveIdx(i).remove(link)
              }
            }
            i += 1
          }
        }
      }
    }
  }

  // ------------------------------------------------------------- metrics

  override def spaceEntries: Long = {
    var s = 0L
    for (n <- nodes) {
      // V_p's entries are vsByKey's keys, as V_s's are its group members
      s += n.tuples.size + n.vsByKey.size + n.projCnt.size + n.live.size
      s += n.vsByKey.valuesIterator.map(_.size.toLong).sum
      if (n.childIdx != null) s += n.childIdx.iterator.map(_.valuesIterator.map(_.size.toLong).sum).sum
      s += n.projByKey.valuesIterator.map(_.size.toLong).sum
      if (n.liveIdx != null)
        s += n.liveIdx.iterator.filter(_ != null).map(_.valuesIterator.map(_.size.toLong).sum).sum
    }
    s
  }

  /** Tree height (relations per root-leaf path), for reports. */
  def planHeight: Int = treeSpec.height
}
