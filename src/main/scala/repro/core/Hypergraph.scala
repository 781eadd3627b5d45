package repro.core

/** Hypergraph-level classification of conjunctive queries (§3.2):
  * α-acyclicity via GYO ear removal, free-connexness, and q-hierarchy.
  */
object Hypergraph {

  /** GYO reduction: a hypergraph is α-acyclic iff repeatedly (a) deleting
    * vertices that occur in a single edge and (b) deleting edges contained
    * in another edge reduces it to at most one edge.
    */
  def isAcyclic(edgesIn: Seq[Set[String]]): Boolean = {
    var edges = edgesIn.filter(_.nonEmpty).distinct.toList
    var changed = true
    while (changed && edges.size > 1) {
      changed = false
      // (a) isolated vertices
      val occ = edges.flatten.groupBy(identity).view.mapValues(_.size).toMap
      val trimmed = edges.map(e => e.filter(v => occ(v) > 1))
      if (trimmed != edges) { edges = trimmed.filter(_.nonEmpty); changed = true }
      // (b) contained edges
      val kept = edges.zipWithIndex.filterNot { case (e, i) =>
        edges.zipWithIndex.exists { case (f, j) => j != i && e.subsetOf(f) && (e != f || j < i) }
      }.map(_._1)
      if (kept != edges) { edges = kept; changed = true }
    }
    edges.size <= 1
  }

  /** Is the query acyclic (join structure only, ignoring the projection)? */
  def isAcyclic(cq: CQ): Boolean = isAcyclic(cq.atoms.map(_.attrs.toSet))

  /** Free-connex (§3.2): both `(V, {e_i})` and `(V, {e_i} ∪ {y})` acyclic. */
  def isFreeConnex(cq: CQ): Boolean =
    isAcyclic(cq) &&
      isAcyclic(cq.atoms.map(_.attrs.toSet) :+ cq.output.toSet)

  /** Q-hierarchical (Def 3.3): for every attribute pair the atom sets are
    * nested or disjoint, and output attributes are "above" non-output ones.
    */
  def isQHierarchical(cq: CQ): Boolean = {
    val vars = cq.allVars
    def atomsOf(x: String): Set[String] =
      cq.atoms.filter(_.attrs.contains(x)).map(_.name).toSet
    val pairsOk = vars.combinations(2).forall { pair =>
      val (a1, a2) = (atomsOf(pair(0)), atomsOf(pair(1)))
      a1.subsetOf(a2) || a2.subsetOf(a1) || (a1 & a2).isEmpty
    }
    val outOk = vars.forall { x1 =>
      vars.forall { x2 =>
        val (a1, a2) = (atomsOf(x1), atomsOf(x2))
        !(cq.output.contains(x1) && a1.subsetOf(a2) && a1 != a2) ||
          cq.output.contains(x2)
      }
    }
    pairsOk && outOk
  }

  /** Smallest output extension (§7.1) making the query free-connex: try
    * adding non-output variables by increasing subset size; for any acyclic
    * query, extending to all variables always succeeds (a full acyclic join
    * is free-connex), so this is total on acyclic inputs.
    */
  def freeConnexExtension(cq: CQ): Option[Vector[String]] = {
    if (!isAcyclic(cq)) return None
    val extra = cq.allVars.filterNot(cq.output.contains)
    (0 to extra.size).iterator
      .flatMap(k => extra.combinations(k))
      .map(add => cq.output ++ add)
      .find(y2 => isFreeConnex(cq.withOutput(y2)))
  }
}
