package repro.core

import org.scalatest.Assertions._
import repro.core.Tup.T
import scala.collection.mutable
import scala.util.Random

/** Shared randomized-equivalence harness: drives any [[IncrementalEngine]]
  * with random mixed insert/delete sequences (self-join expanded) and checks
  * after every base update that the emitted delta equals the from-scratch
  * `ΔQ(D,t)` and (periodically) that full enumeration equals `Q(D)`.
  */
object EngineCheck {

  def snapshot(db: mutable.Map[String, mutable.Set[T]]): Map[String, Set[T]] =
    db.view.mapValues(_.toSet).toMap

  def checkEngine(cq: CQ, copies: Map[String, Seq[String]],
                  mkEngine: () => IncrementalEngine,
                  seedBase: Int, rounds: Int = 4, len: Int = 60, nV: Int = 5,
                  fullEvery: Int = 7): Unit = {
    for (round <- 0 until rounds) {
      val rnd = new Random(seedBase * 1000 + round)
      val engine = mkEngine()
      val db = mutable.Map.empty[String, mutable.Set[T]]
      for (a <- cq.atoms) db(a.name) = mutable.Set.empty[T]
      val present = mutable.Map.empty[String, mutable.Set[T]]
      copies.keys.foreach(b => present(b) = mutable.Set.empty[T])

      def randomTuple(base: String): T = {
        val arity = cq.atomByName(copies(base).head).attrs.size
        Tup(Seq.fill(arity)(rnd.nextInt(nV).toLong): _*)
      }

      for (step <- 0 until len) {
        val base = copies.keys.toVector(rnd.nextInt(copies.size))
        val doInsert = present(base).isEmpty || rnd.nextDouble() < 0.6
        val t =
          if (doInsert) randomTuple(base)
          else present(base).toVector(rnd.nextInt(present(base).size))
        if (doInsert) present(base) += t else present(base) -= t

        val atomUpds = copies(base).map(a => Upd(a, t, doInsert, step.toLong))
        val before = snapshot(db)
        for (au <- atomUpds)
          if (doInsert) db(au.rel) += au.t else db(au.rel) -= au.t
        val after = snapshot(db)
        val expected = BruteForce.delta(cq, before, after, doInsert)
        val got = mutable.Set.empty[T]
        var emitted = 0
        for (au <- atomUpds)
          engine.processUpdate(au) { r => got += r; emitted += 1 }
        withClue(s"${cq.name}/${engine.name} round=$round step=$step ins=$doInsert t=$t: ") {
          assert(got == expected,
            s"delta mismatch: extra=${got.toSet -- expected} missing=${expected -- got}")
          assert(emitted == got.size, "duplicate delta emissions")
        }
        if (step % fullEvery == 0 || step == len - 1) {
          val full = engine.fullSet
          val exp = BruteForce.eval(cq, after)
          withClue(s"${cq.name}/${engine.name} round=$round step=$step FULL: ") {
            assert(full == exp,
              s"full mismatch: missing=${exp -- full} extra=${full -- exp}")
          }
        }
      }
    }
  }
}
