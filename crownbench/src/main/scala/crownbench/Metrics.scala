package crownbench

import repro.stream.Hypercube.ParStats

/** Derives the reported metrics, as (name, value, unit), from the passes. */
object Metrics {

  type Metric = (String, Double, String)

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** The `q`-quantile of `xs` by the nearest-rank rule. */
  def quantile(xs: Array[Long], q: Double): Long = {
    val s = xs.clone()
    java.util.Arrays.sort(s)
    s(math.min(s.length - 1, math.max(0, math.ceil(q * s.length).toInt - 1)))
  }

  /** Updates per second of one pass: of `runParallel` where the workload is
    * sharded, else of the serial replay.
    */
  private def updatesPerS(p: Pass): Double =
    p.parallel.fold(p.serial.updatesPerS)(ps => p.serial.n / (ps.wallMillis / 1e3))

  def endToEnd(passes: Seq[Pass], s: Setup, peakState: Long): Seq[Metric] = {
    val lat = passes.flatMap(_.serial.latNs).toArray
    val n = passes.map(_.serial.n.toLong).sum
    val alloc = passes.map(_.serial.updAlloc).sum
    Seq(
      ("updates_per_s", median(passes.map(updatesPerS)), "1/s"),
      ("update_latency_p50_us", quantile(lat, 0.50) / 1e3, "us"),
      ("update_latency_p99_us", quantile(lat, 0.99) / 1e3, "us"),
      ("full_enum_results_per_s",
        passes.map(_.serial.readResults).sum / (passes.map(_.serial.readNs).sum / 1e9), "1/s"),
      ("alloc_bytes_per_update", alloc.toDouble / n, "B"),
      ("peak_state_entries", peakState.toDouble, "count"),
      ("setup_s", median(s.setupNs.map(_.toDouble)) / 1e9, "s"))
  }

  /** Splits each traced update at its first and last emit. An update that
    * emits nothing is silent. The clock reads the emit callback makes
    * (`clockNs` each, two per delta) are taken out of `delta_enum` and the
    * sink and charged to the harness. The phases, the sink, the reads and
    * the harness remainder add up to the traced wall time. Times and counts
    * are per pass through the stream.
    */
  def perLayer(untraced: Seq[Pass], traced: Seq[Pass], s: Setup, clockNs: Double): Seq[Metric] = {
    var silent, silentN, emitting, pre, gapNs, post, sinkNs, deltas, ops, emitAlloc = 0L
    var insNs, delNs = 0L
    val ins, del = Array.newBuilder[Long]
    for (p <- traced; tr = p.serial.trace; i <- 0 until p.serial.n) {
      val total = tr.end(i) - tr.start(i)
      if (tr.deltas(i) == 0) { silent += total; silentN += 1 }
      else {
        emitting += 1
        pre += tr.first(i) - tr.start(i)
        gapNs += tr.last(i) - tr.first(i) - tr.sinkNs(i)
        post += tr.end(i) - tr.last(i)
        sinkNs += tr.sinkNs(i)
        deltas += tr.deltas(i)
        emitAlloc += tr.alloc(i)
      }
      ops += tr.workOps(i)
      if (p.serial.updates(i).isInsert) { insNs += total; ins += total } else { delNs += total; del += total }
    }
    val passes = traced.size.toDouble
    val updates = traced.map(_.serial.n).sum.toDouble
    val wall = traced.map(_.serial.wallNs).sum
    val reads = traced.map(_.serial.readNs).sum
    // one clock read between consecutive deltas of an update, one inside each sink interval
    val enumNs = gapNs - (deltas - emitting) * clockNs
    val sink = sinkNs - deltas * clockNs
    val harness = (wall - silent - pre - post - reads).toDouble - enumNs - sink
    def s_(ns: Double) = ns / 1e9 / passes
    def p99us(b: scala.collection.mutable.ArrayBuilder[Long]) = {
      val a = b.result(); if (a.isEmpty) 0.0 else quantile(a, 0.99) / 1e3
    }
    def perDelta(x: Double) = if (deltas == 0) 0.0 else x / deltas
    val par = traced.flatMap(_.parallel)
    val sizes = traced.head.shardSizes.map(_.toDouble)
    def parMedian(f: ParStats => Double) = if (par.isEmpty) 0.0 else median(par.map(f))
    Seq(
      ("crown.delta_enum.s", s_(enumNs), "s"),
      ("crown.delta_enum.ns_per_delta", perDelta(enumNs), "ns"),
      ("crown.alloc_bytes_per_delta", perDelta(emitAlloc.toDouble), "B"),
      ("crown.silent.s", s_(silent.toDouble), "s"),
      ("crown.silent.updates", silentN / passes, "count"),
      ("crown.work_ops_per_update", ops / updates, "count"),
      ("crown.pre_emit.s", s_(pre.toDouble), "s"),
      ("crown.post_emit.s", s_(post.toDouble), "s"),
      ("crown.insert.s", s_(insNs.toDouble), "s"),
      ("crown.delete.s", s_(delNs.toDouble), "s"),
      ("crown.insert.p99_us", p99us(ins), "us"),
      ("crown.delete.p99_us", p99us(del), "us"),
      ("crown.full_enum.s", s_(reads.toDouble), "s"),
      ("crown.full_enum.results", traced.map(_.serial.readResults).sum / passes, "count"),
      ("planner.compile_ms", median(s.compileNs.map(_.toDouble)) / 1e6, "ms"),
      ("planner.tree_nodes", s.tree.allNodes.size.toDouble, "count"),
      ("planner.tree_height", s.tree.height.toDouble, "count"),
      ("hypercube.shard_s", median(traced.map(_.shardNs / 1e9)), "s"),
      ("hypercube.makespan_s", parMedian(_.makespanMillis / 1e3), "s"),
      ("hypercube.spark_overhead_s", parMedian(ps => (ps.wallMillis - ps.makespanMillis) / 1e3), "s"),
      ("hypercube.replication", sizes.sum / traced.head.serial.n, "ratio"),
      ("hypercube.skew", sizes.max / (sizes.sum / sizes.size), "ratio"),
      ("sink.s", s_(sink), "s"),
      ("harness.s", s_(harness), "s"),
      ("trace.wall_s", s_(wall.toDouble), "s"),
      ("trace.overhead",
        median(untraced.map(_.serial.updatesPerS)) / median(traced.map(_.serial.updatesPerS)), "ratio"))
  }
}
