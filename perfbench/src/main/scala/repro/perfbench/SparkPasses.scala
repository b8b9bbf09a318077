package repro.perfbench

import scala.collection.mutable
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd
import org.apache.spark.sql.perfbench.SparkInternals

/** Spark work attributed to one benchmark pass (gen, truth, build, ...). */
final case class PassTotals(jobs: Int, jobWallMs: Long, taskMs: Long, records: Long, shuffleBytes: Long)

/** Tags the Spark jobs of a pass and, when the listener is installed,
  * sums their task time, scanned records and shuffle bytes per pass.
  */
object SparkPasses {
  val Property = "perfbench.pass"

  /** Runs `body` with its Spark jobs tagged as `pass`. */
  def within[T](spark: SparkSession, pass: String)(body: => T): T = {
    val sc = spark.sparkContext
    val prev = sc.getLocalProperty(Property)
    sc.setLocalProperty(Property, pass)
    try body finally sc.setLocalProperty(Property, prev)
  }

  def install(spark: SparkSession): Listener = {
    val l = new Listener
    spark.sparkContext.addSparkListener(l)
    l
  }

  final class Listener extends SparkListener {
    private final class Acc { var jobs = 0; var jobWallMs = 0L; var taskMs = 0L; var records = 0L; var shuffleBytes = 0L }
    private val acc = mutable.Map.empty[String, Acc]
    private val stagePass = mutable.Map.empty[Int, String]
    private val jobStart = mutable.Map.empty[Int, (String, Long)]
    private val execPass = mutable.Map.empty[Long, String]

    private def of(pass: String): Acc = acc.getOrElseUpdate(pass, new Acc)

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      Option(e.properties).flatMap(p => Option(p.getProperty(Property))).foreach { pass =>
        e.stageIds.foreach(stagePass(_) = pass)
        jobStart(e.jobId) = (pass, e.time)
        Option(e.properties.getProperty("spark.sql.execution.id")).foreach(id => execPass(id.toLong) = pass)
      }
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobStart.remove(e.jobId).foreach { case (pass, t0) =>
        val a = of(pass); a.jobs += 1; a.jobWallMs += e.time - t0
      }
    }

    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      for (pass <- stagePass.get(e.stageId); m <- Option(e.taskMetrics)) {
        val a = of(pass)
        a.taskMs += m.executorRunTime
        a.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }

    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case end: SparkListenerSQLExecutionEnd =>
        val rows = SparkInternals.leafRows(end)
        synchronized { execPass.get(end.executionId).foreach(of(_).records += rows) }
      case _ =>
    }

    /** Totals per pass, after every event posted so far was delivered. */
    def totals(spark: SparkSession): Map[String, PassTotals] = {
      SparkInternals.drainListenerBus(spark)
      synchronized {
        acc.map { case (k, a) => k -> PassTotals(a.jobs, a.jobWallMs, a.taskMs, a.records, a.shuffleBytes) }.toMap
      }
    }
  }
}
