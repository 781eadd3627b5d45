package crownbench

import java.io.{File, PrintWriter}
import java.util.zip.GZIPOutputStream
import org.apache.spark.sql.SparkSession
import repro.core.{Compiler, CrownEngine, JTNode}
import repro.stream.Hypercube
import scala.collection.mutable.ArrayBuffer

/** The CROWN benchmark harness for one workload and seed.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --out <dir>
  * }}}
  *
  * It sets up several times (plan compile + engine build, plus a SparkSession
  * start where Spark is used) and reports the median as `setup_s`. A pass
  * replays one of the workload's streams through a fresh engine; passes take
  * the streams in turn. It warms the JIT with untimed passes (at least one
  * per stream, for at least 3 s), then makes timed passes in whole rounds
  * over the streams until `--seconds` have elapsed. With `--trace 0` it
  * prints the end-to-end metrics; with `--trace 1` it alternates untraced
  * and traced passes, writes the per-update trace records under `--out`, and
  * prints the per-layer metrics derived from them. Every pass checks the
  * delta stream against full enumeration; the last line of stdout is the
  * JSON result, and a failed check exits with status 1.
  */
object Main {

  // JIT warm-up: untimed passes, at least one per stream and for at least this long
  private val WarmupSeconds = 3.0
  private val PeakSamples = 128

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: File)

  def parse(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    require(args.length == 2 * m.size, s"arguments must be --key value pairs: ${args.mkString(" ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, not $trace")
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, trace == "1",
      new File(need("out")))
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val w = Workloads(a.workload, a.seed)
    println(s"workload ${w.name} seed ${a.seed}: ${w.inputs}")
    val code = try run(a, w) finally Spark.stop()
    sys.exit(code)
  }

  private def run(a: Args, w: Workload): Int = {
    val setup = Setup(w, a.out)
    val errors = ArrayBuffer.empty[String]
    val k = w.streams.size
    /** Appends a pass over the next stream in turn to `to`. */
    def pass(to: ArrayBuffer[Pass], traced: Boolean, peak: Boolean = false): Unit = {
      val p = Pass(w, setup, to.size % k, traced, if (peak) PeakSamples else 0)
      errors ++= p.errors
      to += p
    }
    def since(t: Long) = (System.nanoTime() - t) / 1e9

    val warm = ArrayBuffer.empty[Pass]
    val w0 = System.nanoTime()
    while (errors.isEmpty && (warm.size < k || since(w0) < WarmupSeconds))
      pass(warm, traced = false, peak = warm.size < k)
    val peakState = warm.map(_.serial.peakState).max
    // timed passes stop after whole rounds over the streams, so each counts alike
    val untraced, traced = ArrayBuffer.empty[Pass]
    def roundsDone = untraced.nonEmpty && untraced.size % k == 0 &&
      (!a.trace || (traced.nonEmpty && traced.size % k == 0))
    val t0 = System.nanoTime()
    while (errors.isEmpty && !(roundsDone && since(t0) >= a.seconds)) {
      System.gc()
      if (a.trace && untraced.size > traced.size) pass(traced, traced = true)
      else pass(untraced, traced = false)
    }

    val timed = untraced ++ traced
    val all = warm ++ timed
    val attempted = all.map(_.attempted).sum
    val failed = all.map(_.serial.failed).sum
    println(s"passes: ${warm.size} warm-up, ${untraced.size} untraced, ${traced.size} traced; " +
      s"deltas per pass by stream: ${warm.take(k).map(_.serial.deltas).mkString(" ")}")
    println(f"failed_update_share ${failed.toDouble / attempted}%.6f ($failed of $attempted)")
    println("serial updates/s per timed pass: " + timed.map(p => f"${p.serial.updatesPerS}%.0f").mkString(" "))

    val metrics =
      if (errors.nonEmpty) { errors.distinct.foreach(e => println(s"CHECK FAILED: $e")); Nil }
      else if (!a.trace) Metrics.endToEnd(untraced.toSeq, setup, peakState)
      else {
        val file = new File(a.out, s"trace-${w.name}-seed${a.seed}.tsv.gz")
        writeTrace(file, w, a.seed, traced.toSeq)
        println(s"trace records: $file")
        val clockNs = Replay.clockReadNs()
        println(f"clock read: $clockNs%.1f ns, two per delta, charged to harness.s")
        Metrics.perLayer(untraced.toSeq, traced.toSeq, setup, clockNs)
      }
    metrics.foreach { case (k, v, u) => println(f"  $k%-36s $v%16.6f $u") }
    val body = metrics.map { case (k, v, u) =>
      require(!v.isNaN && !v.isInfinite, s"metric $k is $v")
      s""""$k": {"value": $v, "unit": "$u"}"""
    }.mkString(", ")
    println(s"""{"correct": ${errors.isEmpty}, "attempted": $attempted, "failed": $failed, "metrics": {$body}}""")
    if (errors.isEmpty) 0 else 1
  }

  /** One gzip'd TSV row per traced update. */
  private def writeTrace(file: File, w: Workload, seed: Long, passes: Seq[Pass]): Unit = {
    file.getParentFile.mkdirs()
    val out = new PrintWriter(new GZIPOutputStream(new java.io.FileOutputStream(file)))
    try {
      out.println("workload\tseed\tpass\tstream\tindex\top\tstart_ns\tfirst_emit_ns\tlast_emit_ns" +
        "\tend_ns\tdeltas\tsink_ns\twork_ops\talloc_bytes")
      for ((p, pi) <- passes.zipWithIndex; tr = p.serial.trace; i <- 0 until p.serial.n) {
        val base = tr.start(0)
        def rel(t: Long) = if (t < 0) -1L else t - base
        val op = if (p.serial.updates(i).isInsert) "insert" else "delete"
        out.println(s"${w.name}\t$seed\t$pi\t${p.stream}\t$i\t$op" +
          s"\t${rel(tr.start(i))}\t${rel(tr.first(i))}\t${rel(tr.last(i))}\t${rel(tr.end(i))}" +
          s"\t${tr.deltas(i)}\t${tr.sinkNs(i)}\t${tr.workOps(i)}\t${tr.alloc(i)}")
      }
    } finally out.close()
  }
}

/** The local SparkSession of the HyperCube workload. */
object Spark {
  private var session: SparkSession = _

  def start(dir: File): SparkSession = {
    session = SparkSession.builder()
      .master("local[2]")
      .appName("crownbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(dir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(dir, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    session
  }

  def stop(): Unit = if (session != null) { session.stop(); session = null }
}

/** Set-up, repeated: plan compile and engine build, plus a SparkSession
  * start for a sharded workload. Input generation is not part of it.
  */
final case class Setup(compileNs: Seq[Long], setupNs: Seq[Long], tree: JTNode,
                       spark: Option[SparkSession])

object Setup {
  def apply(w: Workload, dir: File): Setup = {
    val reps = if (w.shards > 0) 5 else 101
    val compile, total = ArrayBuffer.empty[Long]
    var tree: JTNode = null
    var spark: Option[SparkSession] = None
    for (_ <- 0 until reps) {
      Spark.stop()
      val t0 = System.nanoTime()
      val eng = Compiler.compile(w.cq)
      val t1 = System.nanoTime()
      if (w.shards > 0) spark = Some(Spark.start(dir))
      val t2 = System.nanoTime()
      compile += t1 - t0
      total += t2 - t0
      tree = eng match {
        case c: CrownEngine => c.treeSpec
        case other => throw new IllegalStateException(s"${w.cq.name} compiled to ${other.name}, not CROWN")
      }
    }
    Setup(compile.toSeq, total.toSeq, tree, spark)
  }
}

/** One pass over stream `stream`: the serial replay, preceded for a sharded
  * workload by a `Hypercube.runParallel` run of the same stream whose total
  * delta count must equal the serial one.
  */
final case class Pass(stream: Int, serial: PassStats, parallel: Option[Hypercube.ParStats],
                      shardNs: Long, shardSizes: Seq[Int], errors: Seq[String]) {
  def attempted: Long = serial.n.toLong + parallel.fold(0L)(_ => serial.n.toLong)
}

object Pass {
  def apply(w: Workload, s: Setup, stream: Int, traced: Boolean, peakSamples: Int): Pass = {
    val ups = w.streams(stream)
    val par = s.spark.map(spark => Hypercube.runParallel(spark, w.cq, s.tree, ups, w.shards))
    val (shardNs, sizes) =
      if (!traced) (0L, Nil)
      else {
        val t0 = System.nanoTime()
        val shards = Hypercube.shard(w.cq, s.tree, ups, math.max(w.shards, 2))
        (System.nanoTime() - t0, shards.map(_.size))
      }
    val serial = Replay.run(w, stream, traced, peakSamples)
    val mismatch = par.filter(_.totalDeltas != serial.deltas).map(ps =>
      s"stream $stream: runParallel emitted ${ps.totalDeltas} deltas, the serial run ${serial.deltas}")
    Pass(stream, serial, par, shardNs, sizes, serial.error.toSeq.map(e => s"stream $stream: $e") ++ mismatch)
  }
}
