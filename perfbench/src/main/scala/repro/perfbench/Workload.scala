package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.data.{Dataset, QuerySpec, Workloads}
import repro.engine.{MatchTask, PrefetchedCounts}
import repro.engine.GroundTruth.Truth
import repro.index.BitmapIndex

/** One benchmark workload: a dataset and its Table 3 queries. FastMatch
  * reads the prefetched block counts; with `onlineCheck`, the golden runs
  * also match the first query through the online reader (one Spark job
  * per round).
  */
final case class Workload(name: String, dataset: String, goldenSeed: Long, onlineCheck: Boolean) {
  def queries: Seq[QuerySpec] = Workloads.queries.filter(_.dataset == dataset)

  def generate(spark: SparkSession, sf: Double, seed: Long): Dataset = dataset match {
    case "FLIGHTS" => Workloads.flights(spark, sf, seed)
    case "TAXI"    => Workloads.taxi(spark, sf, seed)
    case "POLICE"  => Workloads.police(spark, sf, seed)
  }
}

object Workload {
  /** Every dataset at this scale factor. Smaller, and FastMatch reads
    * nearly all of TAXI and POLICE, which says nothing about sampling.
    */
  val Sf = 0.25

  /** The workloads a run can measure. */
  val measured: Seq[Workload] = Seq(
    Workload("flights", "FLIGHTS", 11, onlineCheck = false),
    Workload("taxi", "TAXI", 22, onlineCheck = false),
  )

  /** Every dataset with golden fingerprints: the measured workloads, and
    * POLICE, whose golden runs also check the online reader. Golden runs
    * use the library's default data seeds.
    */
  val all: Seq[Workload] = measured :+ Workload("police", "POLICE", 33, onlineCheck = true)

  def named(name: String): Workload = measured.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; known: ${measured.map(_.name).mkString(", ")}"))

  /** Fixed start blocks of the golden runs. */
  def goldenStarts(numBlocks: Int): Seq[Int] =
    Seq(7L, 8L).map(s => new java.util.Random(s).nextInt(numBlocks))
}

/** A query ready to match: its exact answer, its block counts and index. */
final case class Prepared(q: QuerySpec, truth: Truth, counts: PrefetchedCounts, index: BitmapIndex, task: MatchTask) {
  def id: String = s"${q.dataset}-${q.name}"
}
