package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession

/** A reported metric: name, value, unit. */
final case class Metric(name: String, value: Double, unit: String)

/** Entry point of the wall-clock benchmark.
  *
  * {{{
  * Main --workload flights|taxi --seed N --seconds S --trace 0|1
  *      --out DIR --golden FILE [--commit SHA] [--source-sha SHA]
  * Main --write-golden --out DIR --golden FILE
  * }}}
  *
  * With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
  * per-layer ones; the last stdout line is the JSON result. It exits
  * non-zero when any operation failed.
  */
object Main {

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 3
  /** Seeded start blocks per query; FastMatch runs from each of them in turn. */
  val StartsPerQuery = 8
  /** Timed cycles wanted after the warm-up cycle, whatever the budget. */
  val MinCycles = 5
  /** Times each exact query runs per cycle: its runs are slower than a
    * FastMatch run and would otherwise give it few samples. */
  val ExactPerCycle = 2
  /** Exact queries run on the measured data, after the set-ups, before any is timed. */
  val ExactWarmJobs = 40

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, out: Path,
                        golden: Path, commit: String, sourceSha: String, writeGolden: Boolean)

  def parseArgs(argv: Seq[String]): Args = {
    val flags = Set("--write-golden")
    def pairs(xs: List[String]): List[(String, String)] = xs match {
      case f :: rest if flags(f)       => (f, "1") :: pairs(rest)
      case k :: v :: rest if k.startsWith("--") => (k, v) :: pairs(rest)
      case Nil                         => Nil
      case other                       => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }
    val m = pairs(argv.toList).toMap
    def get(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val writeGolden = m.contains("--write-golden")
    val trace = m.getOrElse("--trace", "0")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val a = Args(
      workload = if (writeGolden) "" else get("--workload"),
      seed = if (writeGolden) 0L else get("--seed").toLong,
      seconds = if (writeGolden) 1 else get("--seconds").toInt,
      trace = trace == "1",
      out = Paths.get(get("--out")),
      golden = Paths.get(get("--golden")),
      commit = m.getOrElse("--commit", "unknown"),
      sourceSha = m.getOrElse("--source-sha", "unknown"),
      writeGolden = writeGolden,
    )
    require(a.seconds >= 1, s"--seconds must be >= 1, got ${a.seconds}")
    if (!writeGolden) Workload.named(a.workload)
    a
  }

  /** The benchmark's own session: every setting that shapes the timings
    * is explicit, none comes from the environment.
    */
  def session(slots: Int, work: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$slots]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", slots.toString)
      .config("spark.default.parallelism", slots.toString)
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val a =
      try parseArgs(argv.toSeq)
      catch { case e: IllegalArgumentException => Console.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2) }
    Files.createDirectories(a.out)
    val slots = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = session(slots, a.out)
    val code =
      try if (a.writeGolden) writeGolden(spark, a) else run(spark, a, slots)
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  def writeGolden(spark: SparkSession, a: Args): Int = {
    val benches = Workload.all.map(w => new Bench(spark, w, Workload.Sf, Bench.Untraced))
    val fps = benches.flatMap(_.goldenPhase(None))
    if (benches.exists(_.failed > 0)) { Console.err.println("perfbench: golden runs failed; file not written"); 1 }
    else { Fingerprint.write(a.golden, fps); println(s"wrote ${fps.size} fingerprints to ${a.golden}"); 0 }
  }

  private def timedS[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e9)
  }

  /** JVM heap in use after a full GC, in MiB (least of three tries). */
  def heapUsedMb(): Double = {
    val rt = Runtime.getRuntime
    Seq.fill(3) { System.gc(); (rt.totalMemory - rt.freeMemory) / 1048576.0 }.min
  }

  def run(spark: SparkSession, a: Args, slots: Int): Int = {
    val w = Workload.named(a.workload)
    val tracer = new Tracer(a.trace)
    val listener = if (a.trace) Some(SparkPasses.install(spark)) else None
    val bench = new Bench(spark, w, Workload.Sf, tracer)
    val golden = Fingerprint.read(a.golden).map(f => f.key -> f).toMap

    // The JVM's and Spark's first jobs take 10-15 s; an untimed set-up
    // absorbs them, so that no timed step depends on being first.
    val (_, warmSetupS) = timedS(bench.setup(a.seed).ds.df.unpersist(blocking = true))
    val times = ArrayBuffer.empty[SetupTimes]
    var last: SetupRun = null
    for (_ <- 0 until SetupReps) {
      // Drop the previous set-up's data before the next one is built.
      if (last != null) last.ds.df.unpersist(blocking = true)
      last = bench.setup(a.seed)
      times += last.times
    }
    val heapMb = heapUsedMb()
    val preps = last.preps
    val scanSim = bench.checks(last)
    val rng = new java.util.Random(a.seed)
    val starts = preps.map(p => p.id -> Seq.fill(StartsPerQuery)(rng.nextInt(p.counts.numBlocks))).toMap
    // The exact query gets faster over its first runs in a JVM and again
    // after the set-ups; runs on the measured data keep that out of its timings.
    val (_, exactWarmS) = timedS(
      Bench.cycles(0, (ExactWarmJobs + preps.size - 1) / preps.size)(c => bench.exactCycle(last.ds, preps, c)))
    // The golden runs follow the timed loops: they run every approach, and
    // run first they would train the JIT on approaches that are not timed.
    var goldenS = 0.0
    def goldenRuns(): Unit = goldenS = timedS(bench.goldenPhase(Some(golden)))._2

    val result = if (!a.trace) {
      // Each cycle runs FastMatch from every start, then every exact
      // query, so both are measured over the whole run. Cycle 0 is a warm-up.
      val samples = ArrayBuffer.empty[Sample]
      val exact = ArrayBuffer.empty[(String, Int, Double)]
      Bench.cycles(a.seconds, 1 + MinCycles) { c =>
        samples ++= bench.matchCycle(preps, starts, c, traced = false)
        for (_ <- 0 until ExactPerCycle) exact ++= bench.exactCycle(last.ds, preps, c)
      }
      goldenRuns()
      endToEnd(bench, last, times.toSeq, heapMb, scanSim, samples.toSeq, exact.toSeq)
    } else {
      // After two untraced warm-up cycles, traced and untraced cycles
      // alternate, so warm-up drift does not bias the tracing overhead.
      val share = a.seconds / 4.0
      val all = ArrayBuffer.empty[Sample]
      Bench.cycles(2 * share, 2 + 2 * MinCycles) { c =>
        all ++= bench.matchCycle(preps, starts, c, traced = c > 1 && c % 2 == 1)
      }
      val (traced, plain) = all.toSeq.filter(_.cycle > 1).partition(_.traced)
      val apps = bench.approaches(preps, rng, starts = 2)
      val calib = preps.map(p => p.id -> bench.calibrate(p)).toMap
      val probes = bench.roundProbes(last.ds, preps, rng)
      Bench.cycles(share / 2, minCycles = 2)(c => bench.exactCycle(last.ds, preps, c))
      goldenRuns()
      // A traced run also checks the other datasets' golden rows, so every
      // fingerprint is checked whichever workloads are run.
      Workload.all.filterNot(_ == w).foreach { other =>
        val ob = new Bench(spark, other, Workload.Sf, Bench.Untraced)
        ob.goldenPhase(Some(golden))
        bench.attempted += ob.attempted
        bench.failed += ob.failed
        bench.violations += ob.violations
      }
      val totals = listener.get.totals(spark)
      val layers = Layers(bench, slots, last, times.toSeq, plain, traced, apps, calib, probes, totals)
      Result(layers.metrics, layers.paperTable)
    }

    val correct = bench.failed == 0
    val provenance = Json.obj(
      "workload" -> Json.str(w.name), "dataset" -> Json.str(w.dataset),
      "seed" -> Json.int(a.seed), "data_seed" -> Json.int(a.seed), "start_seed" -> Json.int(a.seed),
      "golden_seed" -> Json.int(w.goldenSeed), "sf" -> Json.num(Workload.Sf),
      "seconds" -> Json.int(a.seconds), "trace" -> Json.bool(a.trace),
      "nproc" -> Json.int(Runtime.getRuntime.availableProcessors()),
      "max_heap_mb" -> Json.num(Runtime.getRuntime.maxMemory / 1048576.0),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}"),
      "jvm_options" -> Json.str(java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments
        .toArray.map(_.toString).filter(o => o.startsWith("-X") && !o.startsWith("-XX:+Ignore")).mkString(" ")),
      "spark" -> Json.str(spark.version), "master" -> Json.str(spark.sparkContext.master),
      "shuffle_partitions" -> Json.str(spark.conf.get("spark.sql.shuffle.partitions")),
      "adaptive" -> Json.str(spark.conf.get("spark.sql.adaptive.enabled")),
      "client" -> Json.str("closed loop, 1 client, 1 query at a time"),
      "warm_setup_s" -> Json.num(warmSetupS), "exact_warm_s" -> Json.num(exactWarmS), "golden_s" -> Json.num(goldenS),
      "setup_s_includes_first_spark_job" -> Json.bool(false),
      "setup_reps" -> Json.int(SetupReps), "starts_per_query" -> Json.int(StartsPerQuery),
      "commit" -> Json.str(a.commit), "source_sha256" -> Json.str(a.sourceSha),
    )
    val line = Json.obj(
      "correct" -> Json.bool(correct),
      "attempted" -> Json.int(bench.attempted),
      "failed" -> Json.int(bench.failed),
      "metrics" -> Json.obj(result.metrics.map(m =>
        m.name -> Json.obj("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))): _*),
    )
    val stem = s"${w.name}-seed${a.seed}-trace${if (a.trace) 1 else 0}"
    Files.write(a.out.resolve(s"$stem.json"), java.util.Arrays.asList(
      Json.obj("provenance" -> provenance, "notes" -> Json.arr(result.notes.map(Json.str)), "result" -> line)), UTF_8)
    if (a.trace) tracer.writeJsonl(a.out.resolve(s"$stem-spans.jsonl"))

    println(s"provenance ${provenance}")
    result.notes.foreach(println)
    result.metrics.foreach(m => println(f"${m.name}%-36s ${m.value}%16.6f ${m.unit}"))
    println(line)
    if (correct) 0 else 1
  }

  /** Metrics plus the human-readable notes printed before them. */
  final case class Result(metrics: Seq[Metric], notes: Seq[String])

  def endToEnd(bench: Bench, last: SetupRun, times: Seq[SetupTimes], heapMb: Double, scanSim: Map[String, Double],
               samples: Seq[Sample], exact: Seq[(String, Int, Double)]): Result = {
    val timed = samples.filter(_.cycle > 0)
    val tails = timed.groupBy(_.id).toSeq.sortBy(_._1).map { case (id, ss) =>
      id -> Stats.tail(ss.map(_.ms)).getOrElse(
        throw new IllegalStateException(s"$id: ${ss.size} FastMatch samples; the tail needs more than 10"))
    }
    val exactMs = exact.filter(_._2 > 0)
    val rows = last.ds.rows.toDouble
    val modeled = samples.groupBy(_.id).map { case (id, ss) => scanSim(id) / Stats.mean(ss.map(_.simTime)) }.toSeq
    val metrics = Seq(
      Metric("setup_s", Stats.median(times.map(_.totalS)), "s"),
      Metric("match_ms_p50", matchP50(timed), "ms"),
      Metric("match_ms_tail", Stats.mean(tails.map(_._2.value)), "ms"),
      Metric("exact_ms_p50", Stats.medianPerGroup(exactMs.map(e => (e._1, e._3))), "ms"),
      Metric("read_frac", Stats.mean(samples.map(_.cost.tuplesRead / rows)), "ratio"),
      Metric("modeled_speedup", Stats.mean(modeled), "x"),
      Metric("ok_frac", 1.0 - bench.failed.toDouble / bench.attempted, "ratio"),
      Metric("heap_mb", heapMb, "MiB"),
    )
    val cycles = timed.map(_.cycle).distinct.size
    val notes = Seq(
      s"match_ms: ${timed.size} FastMatch samples after a warm-up cycle, $cycles cycles over " +
        s"$StartsPerQuery start blocks per query; p50 is the mean over queries of the median over start " +
        "blocks of each start's best time; tail is the mean over queries of each query's tail; tails: " +
        tails.map { case (id, t) => f"$id p${t.percentile}%.1f of ${t.samples}" }.mkString(", "),
      s"exact_ms: ${exactMs.size} samples after $ExactWarmJobs warm-up queries and a warm-up cycle",
      s"setup_s: median of ${times.size} set-ups: ${times.map(r => f"${r.totalS}%.3f").mkString(", ")} s",
      s"operations: ${bench.attempted} attempted, ${bench.failed} failed",
    )
    Result(metrics, notes)
  }

  /** Mean over queries of the median over start blocks of each start
    * block's best time. The best of a start's repeated runs is the time of
    * its work with the least interference from the rest of the machine.
    */
  def matchP50(samples: Seq[Sample]): Double =
    Stats.medianPerGroup(samples.groupBy(s => (s.id, s.start)).toSeq.map { case ((id, _), ss) =>
      id -> ss.map(_.ms).min
    })
}
