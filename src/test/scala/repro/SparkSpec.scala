package repro

import java.util.UUID
import org.apache.spark.JobExecutionStatus
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.concurrent.Eventually._
import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.time.SpanSugar._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** The Spark jobs `body` runs, as each job's number of stages, in job
    * order. The jobs run in a job group of their own; a marker job in a
    * second group runs after them, and once the status tracker shows it
    * finished, it has seen every event of `body`'s jobs.
    */
  def stagesPerJob(body: => Any): Seq[Int] = {
    val sc = spark.sparkContext
    val group = s"counted-${UUID.randomUUID()}"
    def inGroup(g: String)(f: => Any): Unit = {
      sc.setJobGroup(g, g)
      try f finally sc.clearJobGroup()
    }
    inGroup(group)(body)
    inGroup(s"$group-marker")(sc.parallelize(Seq(1), 1).count())
    val tracker = sc.statusTracker
    eventually(timeout(30.seconds), interval(20.millis)) {
      val marker = tracker.getJobIdsForGroup(s"$group-marker").flatMap(tracker.getJobInfo)
      assert(marker.exists(_.status == JobExecutionStatus.SUCCEEDED))
    }
    tracker.getJobIdsForGroup(group).sorted.toSeq.map(id => tracker.getJobInfo(id).get.stageIds.length)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
