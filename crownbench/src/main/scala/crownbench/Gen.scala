package crownbench

import java.util.SplittableRandom
import repro.core.Tup
import repro.core.Tup.T
import repro.workload.SnbData
import scala.collection.mutable

/** Seeded input generators that need no Spark.
  *
  * They draw from the same distributions as [[repro.workload.GraphData]] and
  * [[repro.workload.SnbData]], but on one sequential random stream, so the
  * output depends on the seed alone and not on how Spark partitions a range.
  * Only `SnbData.sizes` and `SnbData.Days`, which are plain formulas, are
  * shared.
  */
object Gen {

  /** GraphData's power-law exponent. */
  private val Alpha = 1.6

  /** Power-law directed edges `(src, dst)` in draw order: exactly `nEdges`
    * distinct pairs, each endpoint drawn by GraphData's inverse CDF.
    */
  def graph(seed: Long, nVertices: Long, nEdges: Int): Vector[T] = {
    val rnd = new SplittableRandom(seed)
    def draw(): Long = math.min(nVertices - 1, math.max(0L,
      (math.pow(rnd.nextDouble() + 1e-12, -1.0 / (Alpha - 1.0)) - 1.0).toLong % nVertices))
    val seen = mutable.HashSet.empty[(Long, Long)]
    val out = Vector.newBuilder[T]
    var draws = 0L
    while (seen.size < nEdges) {
      require(draws < 1000L * nEdges,
        s"$nVertices vertices give fewer than $nEdges distinct power-law edges")
      val e = (draw(), draw())
      draws += 1
      if (seen.add(e)) out += Tup(e._1, e._2)
    }
    out.result()
  }

  /** SNB-lite rows `(relation, tuple, ts in days)` at scale factor `sf`, with
    * SnbData's table sizes, string names, ~30% non-null `m_c_replyof`, Zipf
    * tag popularity and uniform day timestamps. Person and tag rows have
    * ts 0; knows, message and message_tag arrive over the timeline.
    */
  def snb(seed: Long, sf: Double): Vector[(String, T, Long)] = {
    val s = SnbData.sizes(sf)
    val days = SnbData.Days
    val rnd = new SplittableRandom(seed)
    def below(n: Long): Long = (rnd.nextDouble() * n).toLong
    val person = (0L until s.persons).map(p => ("person", Tup(p, s"fn${p % 97}", s"ln${p % 101}"), 0L))
    val knows = mutable.LinkedHashSet.empty[(Long, Long, Long)]
    for (_ <- 0L until s.knows) knows += ((below(s.persons), below(s.persons), below(days)))
    val tag = (0L until s.tags).map(t => ("tag", Tup(t, s"tag$t"), 0L))
    val message = (0L until s.messages).map { m =>
      val creator = below(s.persons)
      val replyOf: Any = if (rnd.nextDouble() < 0.3) below(s.messages) else null
      ("message", Tup(m, creator, replyOf), below(days))
    }
    val messageTag = mutable.LinkedHashSet.empty[(Long, Long)]
    for (_ <- 0L until s.messageTags) {
      val m = below(s.messages)
      val zipf = (math.pow(rnd.nextDouble() + 1e-12, -1.25) - 1.0).toLong % s.tags
      messageTag += ((m, math.min(s.tags - 1, zipf)))
    }
    (person ++
      knows.iterator.map { case (a, b, ts) => ("knows", Tup(a, b), ts) } ++
      tag ++ message ++
      messageTag.iterator.map { case (m, t) => ("message_tag", Tup(m, t), (m * 7 + 3) % days) }
    ).toVector
  }
}
