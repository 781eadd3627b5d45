package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Tup.T
import repro.workload.Queries
import scala.collection.mutable

/** ScalaCheck properties over arbitrary generated update sequences — wider
  * and more adversarial input distributions than the fixed-seed harness
  * (bursts of deletions, tiny domains, repeated tuples).
  */
class CrownPropertySpec extends AnyFunSuite {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(60), p)
    assert(res.passed, res.status.toString)
  }

  private case class Op(ins: Boolean, src: Long, dst: Long)

  private val opGen: Gen[Op] = for {
    ins <- Gen.frequency(3 -> true, 2 -> false)
    s <- Gen.choose(0L, 3L)
    d <- Gen.choose(0L, 3L)
  } yield Op(ins, s, d)

  private def runProp(cq: CQ, copies: Seq[String]): Prop =
    Prop.forAll(Gen.listOfN(50, opGen)) { ops =>
      val engine = new CrownEngine(cq, JoinTree.choose(cq).get)
      val db = mutable.Map.empty[String, mutable.Set[T]]
      cq.atoms.foreach(a => db(a.name) = mutable.Set.empty[T])
      ops.forall { op =>
        val t = Tup(op.src, op.dst)
        val before = db.view.mapValues(_.toSet).toMap
        for (a <- copies) { if (op.ins) db(a) += t else db(a) -= t }
        val after = db.view.mapValues(_.toSet).toMap
        val expected = BruteForce.delta(cq, before, after, op.ins)
        val got = mutable.Set.empty[T]
        for (a <- copies) engine.processUpdate(Upd(a, t, op.ins))(got += _)
        got == expected && engine.fullSet == BruteForce.eval(cq, after)
      }
    }

  test("property: 3-hop full deltas always match brute force") {
    check(runProp(Queries.hop3Full(1000), Seq("G1", "G2", "G3")))
  }

  test("property: 3-hop projection deltas always match brute force") {
    check(runProp(Queries.hop3Proj(1000), Seq("G1", "G2", "G3")))
  }

  test("property: star deltas always match brute force") {
    check(runProp(Queries.star3(1000), Seq("G1", "G2", "G3")))
  }

  test("property: 4-hop intro deltas always match brute force") {
    check(runProp(Queries.hop4Intro(1000), Seq("G1", "G2", "G3", "G4")))
  }

  test("property: 3-hop full with a result filter under deletions matches brute force") {
    // Live views follow the unfiltered join: a projection whose results the
    // filter drops still joins later witnesses below it.
    val cq = Queries.hop3Full(1000).copy(resultFilter = Some((t: T) => t(0) != t(3)))
    check(runProp(cq, Seq("G1", "G2", "G3")))
  }
}
