package repro.perfbench

import repro.engine.{Approach, CostParams, RunResult}

/** Per-layer metrics of a traced run, and the paper comparison table.
  *
  * @param plain  FastMatch runs with a plain reader and no spans
  * @param traced FastMatch runs through a [[TimedReader]], with spans;
  *               both after warm-up
  * @param apps   (query id, approach, ms, result) for every approach
  * @param calib  direct-call unit prices per query id
  * @param probes (read ns, tuples returned) of the single online round
  *               read per query
  * @param totals Spark listener totals per pass
  */
final case class Layers(
    bench: Bench,
    slots: Int,
    last: SetupRun,
    times: Seq[SetupTimes],
    plain: Seq[Sample],
    traced: Seq[Sample],
    apps: Seq[(String, String, Double, RunResult)],
    calib: Map[String, Calibration],
    probes: Seq[(Long, Long)],
    totals: Map[String, PassTotals],
) {
  import Stats.{mean, median}

  private val preps = last.preps

  private def runs(app: Approach): Seq[RunResult] = apps.filter(_._2 == app.name).map(_._4)
  private def key(app: Approach): String = app.name.toLowerCase

  /** (median ms, mean modeled time) per (query id, approach). */
  private val perQuery: Map[(String, String), (Double, Double)] =
    apps.groupBy(x => (x._1, x._2)).map { case (k, xs) =>
      k -> ((median(xs.map(_._3)), mean(xs.map(_._4.simTime))))
    }

  private def measuredSpeedup(id: String, app: Approach): Double =
    perQuery((id, Approach.Scan.name))._1 / perQuery((id, app.name))._1

  private def modeledSpeedup(id: String, app: Approach): Double =
    perQuery((id, Approach.Scan.name))._2 / perQuery((id, app.name))._2

  private def avg(f: Calibration => Double): Double = mean(preps.map(p => f(calib(p.id))))

  private val tupleNs = avg(_.tupleNs)
  private val statOpNs = mean(preps.map(p => calib(p.id).iterateNs / p.task.vz))

  /** Listener totals of a pass and the number of calls they cover. */
  private def pass(name: String): (PassTotals, Int) =
    (totals.getOrElse(name, PassTotals(0, 0, 0, 0, 0)), math.max(1, bench.passCalls(name)))

  /** FastMatch wall time not spent in timed reads, probes or statistics,
    * with probes and statistics priced at their calibrated unit costs.
    */
  private def selfShare: Double = {
    val wallNs = traced.map(_.ms * 1e6).sum
    val other = traced.map { s =>
      val c = calib(s.id)
      s.readNs + (s.cost.probesWarm + s.cost.lineMisses) * c.warmProbeNs +
        s.cost.statsIters * c.iterateNs
    }.sum
    (wallNs - other) / wallNs
  }

  def metrics: Seq[Metric] = {
    val ds = last.ds
    val sparkPasses = Seq("gen", "truth", "build", "index", "round", "exact").flatMap { name =>
      val (t, calls) = pass(name)
      Seq(
        Metric(s"spark.$name.task_ms", t.taskMs.toDouble / calls, "ms"),
        Metric(s"spark.$name.records_read", t.records.toDouble / calls, "count"),
        Metric(s"spark.$name.shuffle_bytes", t.shuffleBytes.toDouble / calls, "bytes"),
      )
    }
    val (round, rounds) = pass("round")
    val fast = traced.map(_.cost)
    Seq(
      Metric("data.gen_ms", median(times.map(_.genMs)), "ms"),
      Metric("data.rows", ds.rows.toDouble, "count"),
      Metric("data.blocks", ds.numBlocks.toDouble, "count"),
      Metric("groundtruth.truth_ms", median(times.map(_.truthMs)), "ms"),
      Metric("blockcounts.build_ms", median(times.map(_.buildMs)), "ms"),
      Metric("blockcounts.entries", preps.map(_.counts.allTriples.size.toDouble).sum, "count"),
      Metric("blockcounts.read_ns_per_tuple", traced.map(_.readNs.toDouble).sum / fast.map(_.tuplesRead).sum, "ns"),
      Metric("blockcounts.read_share", traced.map(_.readNs.toDouble).sum / traced.map(_.ms * 1e6).sum, "ratio"),
      Metric("blockcounts.round_ms_p50", median(probes.map(_._1 / 1e6)), "ms"),
      Metric("blockcounts.rounds_per_query", mean(traced.map(_.readCallNs.size.toDouble)), "count"),
      Metric("blockcounts.round_useful_ratio", probes.map(_._2.toDouble).sum / math.max(1L, round.records), "ratio"),
      Metric("index.build_ms", median(times.map(_.indexMs)), "ms"),
      Metric("index.bits_set", preps.map(p => (0 until p.task.vz).map(p.index.blockCount(_).toDouble).sum).sum, "count"),
      Metric("policies.probes_cold", mean(runs(Approach.SyncMatch).map(_.cost.probesCold.toDouble)), "count"),
      Metric("policies.probes_warm", mean(fast.map(_.probesWarm.toDouble)), "count"),
      Metric("policies.line_misses", mean(fast.map(_.lineMisses.toDouble)), "count"),
      Metric("policies.cold_probe_ns", avg(_.coldProbeNs), "ns"),
      Metric("policies.warm_probe_ns", avg(_.warmProbeNs), "ns"),
      Metric("policies.read_ratio", fast.map(_.blocksRead.toDouble).sum / fast.map(_.blocksConsidered).sum, "ratio"),
    ) ++ Approach.all.map { app =>
      Metric(s"deviations.iters.${key(app)}", mean(runs(app).map(_.cost.statsIters.toDouble)), "count")
    } ++ Seq(
      Metric("deviations.iterate_us", avg(_.iterateNs) / 1e3, "us"),
      Metric("histsimstate.refresh_us", avg(_.refreshNs) / 1e3, "us"),
    ) ++ Approach.all.map { app =>
      Metric(s"matchers.${key(app)}.ms_p50", Stats.medianPerGroup(apps.filter(_._2 == app.name).map(x => (x._1, x._3))), "ms")
    } ++ Approach.all.filterNot(_ == Approach.Scan).map { app =>
      Metric(s"matchers.${key(app)}.speedup", mean(preps.map(p => measuredSpeedup(p.id, app))), "x")
    } ++ Seq(
      Metric("matchers.self_share", selfShare, "ratio"),
      Metric("costmodel.tuple_ns", tupleNs, "ns"),
      Metric("costmodel.miss_probe", avg(_.coldProbeNs) / tupleNs, "tuples"),
      Metric("costmodel.hit_probe", avg(_.warmProbeNs) / tupleNs, "tuples"),
      Metric("costmodel.stat_op_per_cand", statOpNs / tupleNs, "tuples"),
    ) ++ sparkPasses ++ Seq(
      Metric("spark.round.wait_ms", (round.jobWallMs - round.taskMs.toDouble / slots) / rounds, "ms"),
      Metric("metrics.violations", bench.violations.toDouble, "count"),
      Metric("metrics.delta_d_max", bench.deltaDMax, "ratio"),
      Metric("trace.overhead_ms", Main.matchP50(traced) - Main.matchP50(plain), "ms"),
    )
  }

  /** Measured and modeled speedups over Scan next to the paper's Table 4,
    * and the calibrated unit prices next to the [[CostParams]] defaults.
    */
  def paperTable: Seq[String] = {
    val d = CostParams()
    val header = f"${"query"}%-11s ${"approach"}%-10s ${"ms_p50"}%10s ${"measured"}%9s ${"modeled"}%9s ${"paper"}%9s"
    val rows = for (p <- preps; app <- Approach.all) yield {
      val ms = perQuery((p.id, app.name))._1
      if (app == Approach.Scan) f"${p.id}%-11s ${app.name}%-10s $ms%10.2f ${1.0}%8.2fx ${1.0}%8.2fx ${"-"}%9s"
      else {
        val paper = p.q.paperSpeedups.get(app.name).map(v => f"$v%8.2fx").getOrElse("-")
        f"${p.id}%-11s ${app.name}%-10s $ms%10.2f ${measuredSpeedup(p.id, app)}%8.2fx " +
          f"${modeledSpeedup(p.id, app)}%8.2fx $paper%9s"
      }
    }
    val costs = Seq(
      ("tTuple", d.tTuple, 1.0),
      ("tMissProbe", d.tMissProbe, avg(_.coldProbeNs) / tupleNs),
      ("tHitProbe", d.tHitProbe, avg(_.warmProbeNs) / tupleNs),
      ("tStatOpPerCand", d.tStatOpPerCand, statOpNs / tupleNs),
    ).map { case (n, default, cal) => f"$n%-16s default ${default}%9.4f calibrated ${cal}%9.4f tuples" }
    Seq("speedup over Scan: measured wall time, modeled simTime, paper Table 4", header) ++ rows ++
      Seq(f"CostParams in tuple units (1 tuple = ${tupleNs}%.2f ns measured)") ++ costs
  }
}
