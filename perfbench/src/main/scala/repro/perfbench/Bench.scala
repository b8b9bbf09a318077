package repro.perfbench

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.core.{Deviations, HistSimState}
import repro.data.{Dataset, Workloads}
import repro.engine._
import repro.index.BitmapIndex

/** One FastMatch run timed in a closed loop (one client, one query at a
  * time): its start block, work counters, modeled time, and the time of
  * each block read when the run was traced. It keeps no histograms, so the
  * samples of a run do not show in `heap_mb`.
  */
final case class Sample(id: String, start: Int, cycle: Int, traced: Boolean, ms: Double, cost: Cost,
                        simTime: Double, readCallNs: Seq[Long]) {
  def readNs: Long = readCallNs.sum
}

/** Times of one preparation of all of a workload's queries. */
final case class SetupTimes(genMs: Double, truthMs: Double, buildMs: Double, indexMs: Double, totalS: Double)

/** One preparation of all of a workload's queries: the data, the prepared
  * queries and how long each step took.
  */
final case class SetupRun(ds: Dataset, preps: Seq[Prepared], times: SetupTimes)

/** Unit prices measured by calling one layer directly, per query. */
final case class Calibration(tupleNs: Double, coldProbeNs: Double, warmProbeNs: Double,
                             iterateNs: Double, refreshNs: Double)

/** The benchmark's steps for one workload, data seed and tracer. Every
  * step that can fail counts as an attempted operation; a failure is an
  * exception, a guarantee violation or a result that differs from the
  * exact answer, the golden fingerprint or the prefetched reader.
  */
final class Bench(spark: SparkSession, val w: Workload, val sf: Double, val tracer: Tracer) {

  var attempted = 0L
  var failed = 0L
  var violations = 0L
  var deltaDMax = 0.0

  /** Spark calls issued per pass, to turn listener totals into per-call values. */
  val passCalls: mutable.Map[String, Int] = mutable.Map.empty.withDefaultValue(0)

  private def warn(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  private def attempt[T](what: => String)(body: => T): Option[T] = {
    attempted += 1
    try Some(body)
    catch { case NonFatal(e) => failed += 1; warn(s"FAILED $what: $e"); None }
  }

  /** Counts an attempted operation as failed when it has problems. */
  private def judge(what: => String, problems: Seq[String]): Unit =
    if (problems.nonEmpty) {
      failed += 1
      problems.foreach(p => warn(s"FAILED $what: $p"))
    }

  private def inPass[T](pass: String)(body: => T): T = {
    passCalls(pass) += 1
    SparkPasses.within(spark, pass)(body)
  }

  private def timedMs[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e6)
  }

  private def generate(dataSeed: Long, pass: String): Dataset = inPass(pass) {
    val ds = w.generate(spark, sf, dataSeed)
    ds.df.cache().count()
    ds
  }

  private def task(q: repro.data.QuerySpec, truth: GroundTruth.Truth): MatchTask =
    MatchTask(q.vz, q.vx, q.k, Workloads.DefaultEps, Workloads.DefaultDelta, truth.target)

  def guarantees(p: Prepared, r: RunResult): Seq[String] = {
    val sep = Metrics.separationHolds(r.matching, p.truth, p.task.eps)
    val rec = Metrics.reconstructionHolds(r.matching, r.counts, p.truth, p.task.eps)
    deltaDMax = math.max(deltaDMax, Metrics.deltaD(r.matching, p.truth))
    if (!sep || !rec) violations += 1
    (if (sep) Nil else Seq(s"${r.approach} separation guarantee violated")) ++
      (if (rec) Nil else Seq(s"${r.approach} reconstruction guarantee violated"))
  }

  // ------------------------------------------------------------------
  // Golden fingerprints
  // ------------------------------------------------------------------

  /** Runs every approach from the golden start blocks on the golden-seed
    * data and compares each fingerprint with `golden` (when given). With
    * `w.onlineCheck` it also runs the first query through the online reader
    * and compares that run with the prefetched one. Returns the
    * fingerprints computed.
    */
  def goldenPhase(golden: Option[Map[Fingerprint.Key, Fingerprint]]): Seq[Fingerprint] =
    tracer.span("golden") {
      val ds = tracer.span("golden.gen")(generate(w.goldenSeed, "golden"))
      val out = ArrayBuffer.empty[Fingerprint]
      try {
        w.queries.foreach { q =>
          val prep = attempt(s"golden prepare ${q.dataset}-${q.name}") {
            val c = tracer.span("golden.prepare")(inPass("golden")(Harness.prepare(spark, ds, q)))
            Prepared(q, c.truth, c.reader, c.index, c.task)
          }
          prep.foreach { p =>
            for (app <- Approach.all; s <- Workload.goldenStarts(ds.numBlocks)) {
              val what = s"golden ${p.id} ${app.name} start=$s"
              attempt(what)(tracer.span("golden.run")(Matchers.run(app, p.task, p.counts, p.index, s))).foreach { r =>
                val fp = Fingerprint.of(w.dataset, w.goldenSeed, sf, q.name, s, r)
                out += fp
                val goldenDiff = golden.map(_.get(fp.key) match {
                  case Some(want) => fp.diff(want)
                  case None       => Seq("no golden fingerprint for this run")
                }).getOrElse(Nil)
                judge(what, guarantees(p, r) ++ goldenDiff)
              }
            }
            if (w.onlineCheck && q == w.queries.head) {
              val s = Workload.goldenStarts(ds.numBlocks).head
              val what = s"golden ${p.id} online FastMatch start=$s"
              attempt(what) {
                tracer.span("golden.online")(inPass("golden") {
                  val index = BitmapIndex.build(ds.df, q.zCol, q.vz, "block", ds.numBlocks)
                  val reader = new SparkRoundReader(ds.df, q.zCol, q.xCol, "block", ds.numBlocks)
                  Matchers.run(Approach.FastMatch, p.task, reader, index, s)
                })
              }.foreach { r =>
                judge(what, Bench.resultDiff(r, Matchers.run(Approach.FastMatch, p.task, p.counts, p.index, s)))
              }
            }
          }
        }
      }
      finally ds.df.unpersist(blocking = true)
      out.toSeq
    }

  // ------------------------------------------------------------------
  // Set-up
  // ------------------------------------------------------------------

  /** Generates the dataset of `dataSeed` and prepares every query: exact
    * answer, block counts and bitmap index.
    */
  def setup(dataSeed: Long): SetupRun = {
    val t0 = System.nanoTime()
    val (ds, genMs) = timedMs(tracer.span("data.gen")(generate(dataSeed, "gen")))
    var truthMs, buildMs, indexMs = 0.0
    val preps = w.queries.map { q =>
      val id = s"${q.dataset}-${q.name}"
      val (truth, tMs) = timedMs(tracer.span("groundtruth.forQuery", id) {
        inPass("truth")(GroundTruth.forQuery(spark, ds, q))
      })
      truthMs += tMs
      val (pc, bMs) = timedMs(tracer.span("blockcounts.build", id) {
        inPass("build")(PrefetchedCounts.build(ds.df, q.zCol, q.xCol, "block", ds.numBlocks))
      })
      buildMs += bMs
      val (index, iMs) = timedMs(tracer.span("index.fromBlockTriples", id) {
        BitmapIndex.fromBlockTriples(pc.allTriples, q.vz, ds.numBlocks)
      })
      indexMs += iMs
      Prepared(q, truth, pc, index, task(q, truth))
    }
    SetupRun(ds, preps, SetupTimes(genMs, truthMs, buildMs, indexMs, (System.nanoTime() - t0) / 1e9))
  }

  // ------------------------------------------------------------------
  // Checks on the seeded data
  // ------------------------------------------------------------------

  /** Scan equals the exact answer. A traced run also checks that the
    * Spark-built index equals the index of the block counts, which times
    * `BitmapIndex.build`. None of this is part of `setup_s`. Returns Scan's
    * modeled time per query id.
    */
  def checks(run: SetupRun): Map[String, Double] = {
    val scanSim = mutable.Map.empty[String, Double]
    run.preps.foreach { p =>
      val q = p.q
      if (tracer.enabled) attempt(s"${p.id} index check") {
        val sparkIndex = tracer.span("index.build", p.id) {
          inPass("index")(BitmapIndex.build(run.ds.df, q.zCol, q.vz, "block", run.ds.numBlocks))
        }
        judge(s"${p.id} index check",
          if (p.index.bitmaps.sameElements(sparkIndex.bitmaps)) Nil
          else Seq("BitmapIndex.build differs from the index of the block counts"))
      }
      attempt(s"${p.id} Scan")(Matchers.run(Approach.Scan, p.task, p.counts, p.index, 0)).foreach { r =>
        scanSim(p.id) = r.simTime
        judge(s"${p.id} Scan",
          (if (r.matching.sameElements(p.truth.topK)) Nil else Seq("Scan matching differs from GroundTruth")) ++
            (if (Bench.sameCounts(r.counts, p.truth.hists)) Nil else Seq("Scan counts differ from GroundTruth")))
      }
    }
    scanSim.toMap
  }

  // ------------------------------------------------------------------
  // Timed loops
  // ------------------------------------------------------------------

  /** One cycle of FastMatch runs: every query from each of its `starts`.
    * A `traced` cycle reads through a [[TimedReader]] and records spans.
    * Every run's guarantees are checked.
    */
  def matchCycle(preps: Seq[Prepared], starts: Map[String, Seq[Int]], cycle: Int, traced: Boolean): Seq[Sample] = {
    val loopTracer = if (traced) tracer else Bench.Untraced
    for (p <- preps; start <- starts(p.id)) yield {
      val reader = if (traced) new TimedReader(p.counts, tracer) else p.counts
      val what = s"${p.id} FastMatch start=$start"
      attempt(what) {
        loopTracer.span("matchers.run", p.id, start) {
          timedMs(Matchers.run(Approach.FastMatch, p.task, reader, p.index, start))
        }
      }.map { case (r, ms) =>
        judge(what, guarantees(p, r))
        Sample(p.id, start, cycle, traced, ms, r.cost, r.simTime, Bench.readCalls(reader).toSeq)
      }
    }
  }.flatten

  /** One cycle of the exact answer a user gets without sampling: one
    * Spark groupBy(Z, X).count() per query, checked against GroundTruth.
    * Returns (query id, cycle, ms) per query.
    */
  def exactCycle(ds: Dataset, preps: Seq[Prepared], cycle: Int): Seq[(String, Int, Double)] =
    preps.flatMap { p =>
      val what = s"${p.id} exact GROUP BY"
      attempt(what) {
        tracer.span("exact.groupBy", p.id) {
          timedMs(inPass("exact")(ds.df.groupBy(col(p.q.zCol), col(p.q.xCol)).count().collect()))
        }
      }.map { case (rows, ms) =>
        val dense = Array.fill(p.q.vz)(new Array[Long](p.q.vx))
        rows.foreach(r => dense(Bench.asInt(r.get(0)))(Bench.asInt(r.get(1))) = r.getLong(2))
        judge(what, if (Bench.sameCounts(dense, p.truth.hists)) Nil else Seq("differs from GroundTruth.histograms"))
        (p.id, cycle, ms)
      }
    }

  // ------------------------------------------------------------------
  // Traced-run extras
  // ------------------------------------------------------------------

  /** Every approach from `starts` seeded start blocks per query, through
    * a timed prefetched reader. Returns (query id, approach, ms, result).
    */
  def approaches(preps: Seq[Prepared], rng: java.util.Random, starts: Int): Seq[(String, String, Double, RunResult)] =
    preps.flatMap { p =>
      val reader = new TimedReader(p.counts, tracer)
      val ss = Seq.fill(starts)(rng.nextInt(p.counts.numBlocks))
      for (app <- Approach.all; s <- ss) yield {
        val what = s"${p.id} ${app.name} start=$s"
        attempt(what)(tracer.span("matchers.run", p.id, s)(timedMs(Matchers.run(app, p.task, reader, p.index, s))))
          .map { case (r, ms) => judge(what, guarantees(p, r)); (p.id, app.name, ms, r) }
      }
    }.flatten

  /** One online round per query: the first lookahead chunk from a
    * seeded start, read by Spark and compared with the block counts.
    * Returns (read ns, tuples returned) per query.
    */
  def roundProbes(ds: Dataset, preps: Seq[Prepared], rng: java.util.Random): Seq[(Long, Long)] =
    preps.flatMap { p =>
      val reader = new TimedReader(
        new SparkRoundReader(ds.df, p.q.zCol, p.q.xCol, "block", ds.numBlocks), tracer)
      val start = rng.nextInt(ds.numBlocks)
      val blocks = Array.tabulate(math.min(CostParams().lookahead, ds.numBlocks))(i => (start + i) % ds.numBlocks)
      val what = s"${p.id} online round start=$start"
      attempt(what)(tracer.span("round.probe", p.id, start)(inPass("round")(reader.read(blocks)))).map { got =>
        val want = p.counts.read(blocks)
        val same = got.indices.forall(i => got(i).sorted.sameElements(want(i).sorted))
        judge(what, if (same) Nil else Seq("SparkRoundReader differs from PrefetchedCounts"))
        (reader.totalNs, got.iterator.flatten.map(_._3.toLong).sum)
      }
    }

  /** Direct calls into the read, probe and statistics layers at the
    * query's |V_Z|; each value is the median of several repetitions.
    */
  def calibrate(p: Prepared): Calibration = tracer.span("calibrate", p.id) {
    val pc = p.counts
    val nb = pc.numBlocks
    val chunk = CostParams().lookahead
    val t = p.task
    def med(reps: Int)(f: => Double): Double = Stats.median(Seq.fill(reps)(f))

    var full: HistSimState = null
    val tupleNs = med(3) {
      val state = new HistSimState(t.vz, t.target)
      var tuples = 0L
      val t0 = System.nanoTime()
      var b = 0
      while (b < nb) {
        pc.read(Array.range(b, math.min(b + chunk, nb))).foreach(_.foreach { case (z, x, c) =>
          state.add(z, x, c); tuples += c
        })
        b += chunk
      }
      full = state
      (System.nanoTime() - t0).toDouble / tuples
    }
    full.refreshAllTau()

    val start = new HistSimState(t.vz, t.target)
    (0 until t.vz).foreach(z => if (p.index.blockCount(z) == 0) start.markExact(z))
    val active = Deviations.iterate(start, t.k, t.eps, t.delta).active
    val coldNs = med(3) {
      val cost = new Cost
      val t0 = System.nanoTime()
      var b = 0
      while (b < nb) { Policies.syncAnyActive(p.index, active, b, cost); b += 1 }
      (System.nanoTime() - t0).toDouble / math.max(1L, cost.probesCold)
    }
    val warmNs = med(3) {
      val cost = new Cost
      val t0 = System.nanoTime()
      var b = 0
      while (b < nb) {
        Policies.lookaheadAnyActive(p.index, active, Array.range(b, math.min(b + chunk, nb)), cost)
        b += chunk
      }
      (System.nanoTime() - t0).toDouble / math.max(1L, cost.probesWarm + cost.lineMisses)
    }
    val calls = 30
    val iterateNs = med(calls) {
      val t0 = System.nanoTime()
      Deviations.iterate(full, t.k, t.eps, t.delta)
      (System.nanoTime() - t0).toDouble
    }
    val all = 0 until t.vz
    val refreshNs = med(calls) {
      val t0 = System.nanoTime()
      full.refreshTau(all)
      (System.nanoTime() - t0).toDouble
    }
    Calibration(tupleNs, coldNs, warmNs, iterateNs, refreshNs)
  }
}

object Bench {
  val Untraced = new Tracer(enabled = false)

  /** Runs `cycle` 0, 1, 2, ... until `budgetS` has passed and at least
    * `minCycles` cycles ran.
    */
  def cycles(budgetS: Double, minCycles: Int)(cycle: Int => Unit): Unit = {
    val t0 = System.nanoTime()
    var c = 0
    while (c < minCycles || (System.nanoTime() - t0) / 1e9 < budgetS) { cycle(c); c += 1 }
  }

  def asInt(v: Any): Int = v match {
    case i: Int  => i
    case l: Long => Math.toIntExact(l)
    case other   => throw new IllegalStateException(s"expected integral value, got $other")
  }

  def sameCounts(a: Array[Array[Long]], b: Array[Array[Long]]): Boolean =
    a.length == b.length && a.indices.forall(i => a(i).sameElements(b(i)))

  /** Field-by-field differences between two runs, empty when identical. */
  def resultDiff(got: RunResult, want: RunResult): Seq[String] = {
    def c(r: RunResult) = Seq(r.cost.tuplesRead, r.cost.blocksRead, r.cost.blocksConsidered,
      r.cost.probesCold, r.cost.probesWarm, r.cost.lineMisses, r.cost.statsIters)
    Seq(
      "approach" -> (got.approach == want.approach),
      "matching" -> got.matching.sameElements(want.matching),
      "counts" -> sameCounts(got.counts, want.counts),
      "tau" -> got.tau.sameElements(want.tau),
      "deltaUpper" -> (java.lang.Double.compare(got.deltaUpper, want.deltaUpper) == 0),
      "rounds" -> (got.rounds == want.rounds),
      "cost" -> (c(got) == c(want)),
      "simTime" -> (java.lang.Double.compare(got.simTime, want.simTime) == 0),
    ).collect { case (field, false) => s"$field differs" }
  }

  /** Per-call read times of a timed reader; none for a plain one. */
  def readCalls(r: BlockReader): collection.Seq[Long] = r match {
    case t: TimedReader => t.callNs
    case _              => Nil
  }
}
