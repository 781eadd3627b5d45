package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.Queries

/** The central correctness property: after EVERY base-table update, CROWN's
  * delta equals the from-scratch `ΔQ(D,t)` and its full enumeration equals
  * `Q(D)` (BruteForce ground truth), over randomized mixed insert/delete
  * sequences with self-join expansion. Any witness/live-view bug dies here.
  */
class CrownVsBruteSpec extends AnyFunSuite {

  private def crown(cq: CQ): () => IncrementalEngine = { () =>
    new CrownEngine(cq, JoinTree.choose(cq).getOrElse(fail(s"no tree for ${cq.name}")))
  }

  private def check(cq: CQ, copies: Map[String, Seq[String]], seed: Int,
                    rounds: Int = 4, len: Int = 60, nV: Int = 5): Unit =
    EngineCheck.checkEngine(cq, copies, crown(cq), seed, rounds, len, nV)

  private val g3 = Map("G" -> Seq("G1", "G2", "G3"))
  private val g4 = Map("G" -> Seq("G1", "G2", "G3", "G4"))

  test("3-hop full join matches brute force") {
    check(Queries.hop3Full(1000), g3, seed = 1)
  }

  test("3-hop join-project matches brute force") {
    check(Queries.hop3Proj(1000), g3, seed = 2)
  }

  test("4-hop full join matches brute force") {
    check(Queries.hop4Full(1000), g4, seed = 3, len = 50)
  }

  test("4-hop intro projection (Fig 1) matches brute force") {
    check(Queries.hop4Intro(1000), g4, seed = 4, len = 50)
  }

  test("4-hop middle projection matches brute force") {
    check(Queries.hop4Proj(1000), g4, seed = 5, len = 50)
  }

  test("star query matches brute force") {
    check(Queries.star3(1000), g3, seed = 6)
  }

  test("2-comb query matches brute force") {
    check(Queries.comb2(1000), Map("G" -> Seq("G1", "G2", "G3"),
      "V" -> Seq("V1"), "W" -> Seq("V2")), seed = 7)
  }

  test("theorem 6.7 query pi_x1(R1 join R2) matches brute force") {
    check(Queries.thm67, Map("A" -> Seq("R1"), "B" -> Seq("R2")), seed = 8)
  }

  test("theorem 6.2 5-relation path matches brute force") {
    check(Queries.thm62, Map("a" -> Seq("R1"), "b" -> Seq("R2"),
      "c" -> Seq("R3"), "d" -> Seq("R4"), "e" -> Seq("R5")), seed = 9)
  }

  test("filters: 3-hop with 50% endpoint filter matches brute force") {
    check(Queries.hop3Full(500), g3, seed = 10)
  }

  test("dense domain stress: 3-hop full on 3 vertices, long churn") {
    check(Queries.hop3Full(1000), g3, seed = 11, rounds = 3, len = 150, nV = 3)
  }

  test("dense domain stress: 4-hop intro on 3 vertices, long churn") {
    check(Queries.hop4Intro(1000), g4, seed = 12, rounds = 3, len = 120, nV = 3)
  }

  test("SNB Q1 shape (person-message-knows) matches brute force") {
    check(Queries.snbQ1, Map("person" -> Seq("person"),
      "message" -> Seq("message"), "knows" -> Seq("knows")), seed = 13)
  }

  test("SNB Q2 shape with IS NULL filter matches brute force") {
    // random tuples use small longs; null replyof is modeled by value 0
    val cq0 = Queries.snbQ2(1000)
    val cq = cq0.copy(atomFilters = Map("message" ->
      ((t: repro.core.Tup.T) => t(2) == 0L))) // "is null" stand-in over Long domain
    check(cq, Map("knows" -> Seq("knows1", "knows2"),
      "message" -> Seq("message"), "message_tag" -> Seq("message_tag"),
      "tag" -> Seq("tag")), seed = 14, len = 50)
  }

  test("SNB Q3 shape with result inequality matches brute force") {
    val cq0 = Queries.snbQ3(1000)
    val cq = cq0.copy(atomFilters = Map("message" ->
      ((t: repro.core.Tup.T) => t(2) == 0L)))
    check(cq, Map("knows" -> Seq("knows1", "knows2"),
      "message" -> Seq("message"), "message_tag" -> Seq("message_tag"),
      "tag" -> Seq("tag")), seed = 15, len = 50)
  }

  test("fig2 query with output {x2} (all three trees valid)") {
    check(Queries.fig2(Vector("x2")), Map("A" -> Seq("R1"), "B" -> Seq("R2")), seed = 16)
  }

  test("fig2 query with output {x1}") {
    check(Queries.fig2(Vector("x1")), Map("A" -> Seq("R1"), "B" -> Seq("R2")), seed = 17)
  }

  test("fig2 full join") {
    check(Queries.fig2(Vector("x1", "x2", "x3")),
      Map("A" -> Seq("R1"), "B" -> Seq("R2")), seed = 18)
  }

  test("every candidate free-connex tree gives identical results (3-hop proj)") {
    val cq = Queries.hop3Proj(1000)
    val trees = JoinTree.candidates(cq).filter(t => JoinTree.isFreeConnexTree(cq, t))
    assert(trees.nonEmpty)
    for (t <- trees)
      EngineCheck.checkEngine(cq, Map("G" -> Seq("G1", "G2", "G3")),
        () => new CrownEngine(cq, t), seedBase = 19, rounds = 2, len = 40)
  }

  test("every candidate free-connex tree gives identical results (SNB Q4 extended)") {
    // Most of these trees put the internal node `message` below a child that
    // enumeration never enters, where it keeps no live view.
    val cq = Queries.snbQ4Extended(1000).copy(atomFilters = Map("message" ->
      ((t: repro.core.Tup.T) => t(2) == 0L))) // "is null" stand-in over Long domain
    val trees = JoinTree.candidates(cq).filter(t => JoinTree.isFreeConnexTree(cq, t))
    assert(trees.nonEmpty)
    for (t <- trees)
      EngineCheck.checkEngine(cq, Map("tag" -> Seq("tag"), "message_tag" -> Seq("message_tag"),
        "message" -> Seq("message"), "knows" -> Seq("knows")),
        () => new CrownEngine(cq, t), seedBase = 20, rounds = 2, len = 50)
  }

  test("a node that enumeration never visits needs no live view") {
    // π_x(R1(x,u) ⋈ R2(x,z) ⋈ R3(x,w)) on the chain R1(R2(R3)): R2 adds no
    // output attribute below R1, so enumeration never enters it and it keeps
    // no live view, although R3's witness checks read its (empty) index.
    val cq = CQ("chain-x", Vector(Atom("R1", Vector("x", "u")),
      Atom("R2", Vector("x", "z")), Atom("R3", Vector("x", "w"))), Vector("x"))
    val tree = JTNode(Vector("x", "u"), Some("R1"), Vector(
      JTNode(Vector("x", "z"), Some("R2"), Vector(
        JTNode(Vector("x", "w"), Some("R3"), Vector.empty)))))
    assert(JoinTree.isFreeConnexTree(cq, tree))
    EngineCheck.checkEngine(cq, Map("a" -> Seq("R1"), "b" -> Seq("R2"), "c" -> Seq("R3")),
      () => new CrownEngine(cq, tree), seedBase = 21, nV = 3)
  }
}
