package crownbench

import repro.core.{CQ, Upd}
import repro.stream.Updates
import repro.workload.Queries

/** One benchmark workload: a query and the per-atom update streams the
  * engine receives, generated from the seed. Passes take the streams in
  * turn.
  *
  * @param reads  full enumerations per pass through a stream, evenly spaced;
  *               each is also an output-check checkpoint
  * @param shards if > 0, each pass also runs its stream through
  *               `Hypercube.runParallel` with this many shards
  * @param inputs what was generated, printed with every run
  */
final case class Workload(name: String, cq: CQ, streams: IndexedSeq[Vector[Upd]], reads: Int,
                          shards: Int, inputs: String)

/** The three workloads. Sizes are chosen so that one pass takes about a
  * second on one core; why each workload exists is recorded in
  * BENCHMARK.json and README.md.
  */
object Workloads {

  /** Independent streams per workload, from seeds `Streams * seed + i`.
    * Costs differ between inputs of the same shape (by ~30% on SNB-lite),
    * so a run averages over several instead of resting on one.
    */
  val Streams = 4

  val names: Seq[String] =
    Seq("hop4-full-fifo", "snb-q2-window", "hop3-full-hypercube")

  def apply(name: String, seed: Long): Workload = name match {
    case "hop4-full-fifo" =>
      graph(name, Queries.hop4Full(100), seed, nVertices = 1200, nEdges = 4000, window = 1000,
        reads = 10, shards = 0)
    case "snb-q2-window" =>
      val cq = Queries.snbQ2(100)
      val sf = 2.0
      val copies = Queries.snbCopies(cq)
      val (ups, inputs) = streams(seed) { s =>
        val rows = Gen.snb(s, sf)
        val base = Updates.timedWindow(rows, 60).filter(u => copies.contains(u.rel))
        val ups = Updates.expandSelfJoin(base, copies)
        val perRel = rows.groupBy(_._1).view.mapValues(_.size).toSeq.sorted
          .map { case (r, n) => s"|$r|=$n" }.mkString(" ")
        // tag rows have ts 0, so the window deletes all of them at day 60
        val tagless = ups.size - 1 - ups.lastIndexWhere(u => u.rel == "tag" && !u.isInsert)
        (ups, f"sf=$sf $perRel window=60d ${counts(ups)} " +
          f"after-last-tag-delete=${100.0 * tagless / ups.size}%.1f%%")
      }
      // results are few and short-lived here, so many small reads keep the
      // read rate from resting on a handful of checkpoints; with 1,000 the
      // read rate still spread by ~0.23 (IQR/median) across runs
      Workload(name, cq, ups, reads = 3000, shards = 0, inputs)
    case "hop3-full-hypercube" =>
      graph(name, Queries.hop3Full(100), seed, nVertices = 1200, nEdges = 10000, window = 3000,
        reads = 10, shards = 2)
    case _ =>
      throw new IllegalArgumentException(s"unknown workload $name; one of ${names.mkString(", ")}")
  }

  /** FIFO count windows over seeded power-law edges, expanded to the
    * query's atom copies.
    */
  private def graph(name: String, cq: CQ, seed: Long, nVertices: Long, nEdges: Int,
                    window: Int, reads: Int, shards: Int): Workload = {
    val (ups, inputs) = streams(seed) { s =>
      val edges = Gen.graph(s, nVertices, nEdges)
      val ups = Updates.expandSelfJoin(Updates.fifoWindow("G", edges, window),
        Queries.graphCopies(cq))
      (ups, s"|V|<=$nVertices |E|=${edges.size} window=$window ${counts(ups)}")
    }
    Workload(name, cq, ups, reads, shards, inputs)
  }

  /** The `Streams` streams of `seed` and a line describing each. */
  private def streams(seed: Long)(gen: Long => (Vector[Upd], String))
      : (IndexedSeq[Vector[Upd]], String) = {
    val s = (0 until Streams).map(i => gen(Streams * seed + i))
    (s.map(_._1), s.zipWithIndex.map { case ((_, d), i) => s"\n  stream $i: $d" }.mkString)
  }

  private def counts(ups: Vector[Upd]): String = {
    val ins = ups.count(_.isInsert)
    s"updates=${ups.size} inserts=$ins deletes=${ups.size - ins}"
  }
}
