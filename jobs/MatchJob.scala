package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.data.Workloads
import repro.engine._
import repro.index.BitmapIndex

/** spark-submit entrypoint running one FastMatch query with the *online*
  * sampling path: every HistSim round issues a distributed DataFrame
  * aggregation over the sampled blocks (SparkRoundReader), rather than
  * prefetching block counts. Demonstrates the distributed
  * sample-then-aggregate execution described in the repro mapping.
  *
  * Usage: spark-submit --class repro.jobs.MatchJob repro.jar \
  *          [dataset] [query] [sf] [startBlock]
  */
object MatchJob {
  def main(args: Array[String]): Unit = {
    val dsName = args.headOption.getOrElse("FLIGHTS")
    val qName = args.lift(1).getOrElse("q1")
    val sf = args.lift(2).map(_.toDouble).getOrElse(0.1)
    val start = args.lift(3).map(_.toInt).getOrElse(0)
    val spark = SparkSession.builder().appName("repro-match")
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]")).getOrCreate()
    try {
      val q = Workloads.queries.find(q => q.dataset == dsName && q.name == qName)
        .getOrElse(throw new IllegalArgumentException(s"no query $dsName-$qName"))
      val ds = Workloads.dataset(spark, dsName, sf)
      ds.df.cache().count()
      val truth = GroundTruth.forQuery(spark, ds, q)
      val reader = new SparkRoundReader(ds.df, q.zCol, q.xCol, "block", ds.numBlocks)
      val index = BitmapIndex.build(ds.df, q.zCol, q.vz, "block", ds.numBlocks)
      val task = MatchTask(q.vz, q.vx, q.k, Workloads.DefaultEps, Workloads.DefaultDelta,
        truth.target)
      val t0 = System.nanoTime()
      val res = Matchers.run(Approach.FastMatch, task, reader, index, start)
      val wallMs = (System.nanoTime() - t0) / 1e6
      println(s"$dsName-$qName top-${q.k}: ${res.matching.mkString(", ")}")
      println(s"true top-${q.k}:          ${truth.topK.mkString(", ")}")
      println(f"rounds=${res.rounds} blocksRead=${res.cost.blocksRead} " +
        f"tuplesRead=${res.cost.tuplesRead} (${100.0 * res.cost.tuplesRead / ds.rows}%.1f%% of data)")
      println(f"deltaUpper=${res.deltaUpper}%.4g wall=${wallMs}%.0f ms " +
        f"separation=${Metrics.separationHolds(res.matching, truth, task.eps)} " +
        f"reconstruction=${Metrics.reconstructionHolds(res.matching, res.counts, truth, task.eps)}")
    } finally spark.stop()
  }
}
