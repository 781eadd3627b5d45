package crownbench

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.SnbData

class GenSpec extends AnyFunSuite {

  test("graph: same seed, same edges; exactly the requested number of distinct edges") {
    val a = Gen.graph(7, 1200, 4000)
    assert(a == Gen.graph(7, 1200, 4000))
    assert(a != Gen.graph(8, 1200, 4000))
    assert(a.size == 4000 && a.distinct.size == 4000)
    assert(a.forall(_.forall(v => v.asInstanceOf[Long] >= 0 && v.asInstanceOf[Long] < 1200)))
  }

  test("graph: power law puts the heaviest degree on the first vertices") {
    val srcDeg = Gen.graph(3, 1200, 4000).groupBy(_(0)).view.mapValues(_.size).toMap
    assert(srcDeg(0L) == srcDeg.values.max)
  }

  test("graph: too few vertices for the edge count is refused") {
    intercept[IllegalArgumentException](Gen.graph(1, 3, 10))
  }

  test("snb: same seed, same rows; SnbData's sizes, null share and day range") {
    val a = Gen.snb(5, 0.5)
    assert(a == Gen.snb(5, 0.5))
    assert(a != Gen.snb(6, 0.5))
    val s = SnbData.sizes(0.5)
    val by = a.groupBy(_._1)
    assert(by("person").size == s.persons && by("tag").size == s.tags)
    assert(by("message").size == s.messages)
    val nullShare = by("message").count(_._2(2) == null).toDouble / s.messages
    assert(nullShare > 0.65 && nullShare < 0.75, nullShare)
    assert(by("tag").forall(_._2(1).isInstanceOf[String]))
    assert(a.forall { case (_, _, ts) => ts >= 0 && ts < SnbData.Days })
  }
}
