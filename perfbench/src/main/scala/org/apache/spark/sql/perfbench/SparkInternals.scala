package org.apache.spark.sql.perfbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The two Spark internals the traced run reads. They are package-private
  * in Spark, hence this object's package.
  */
object SparkInternals {

  /** Blocks until every posted listener event has been delivered, so the
    * listener's counters are complete when they are read.
    */
  def drainListenerBus(spark: SparkSession): Unit =
    spark.sparkContext.listenerBus.waitUntilEmpty()

  /** Rows produced by the leaf operators of a finished SQL execution: the
    * records its jobs scanned (for a cached frame, the in-memory scan).
    */
  def leafRows(end: SparkListenerSQLExecutionEnd): Long =
    Option(end.qe).map { qe =>
      qe.executedPlan.collectLeaves().flatMap(_.metrics.get("numOutputRows")).map(_.value).sum
    }.getOrElse(0L)
}
