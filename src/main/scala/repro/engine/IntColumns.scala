package repro.engine

import scala.reflect.ClassTag
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Alias, UpCast}
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.execution.{QueryExecution, SQLExecution}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{ByteType, IntegerType, LongType, ShortType}

/** Integral DataFrame columns read row by row as `Int`s, in one Spark job
  * with no shuffle: the scan the set-up passes share. It reads Catalyst's
  * `InternalRow`s, so no row becomes an object, and runs as a SQL
  * execution, so listeners see its scan like a DataFrame action's.
  *
  * The input checks are made here, once:
  *  - a column that is not integral is rejected on the driver, naming it;
  *  - an integral column is up-cast to `Int` at analysis, never narrowed:
  *    a `Long` column fails there with Spark's `AnalysisException`,
  *    naming it;
  *  - a null, or a value the caller rejects with [[Rows.fail]], stops its
  *    partition's scan, and the driver throws an
  *    `IllegalArgumentException` with the message.
  */
private[repro] object IntColumns {

  /** One partition's rows. `next()` moves to the next row and is false at
    * the end, at a null and after [[fail]]; `apply(i)` is column i of the
    * current row.
    */
  final class Rows private[IntColumns] (it: Iterator[InternalRow], cols: Array[String]) {
    private var row: InternalRow = _
    private[IntColumns] var problem: String = _

    def next(): Boolean =
      if (problem != null || !it.hasNext) false
      else {
        row = it.next()
        if (row.anyNull) fail(s"null in column ${cols(cols.indices.find(row.isNullAt).get)}")
        problem == null
      }

    def apply(i: Int): Int = row.getInt(i)

    /** Stops the scan; the driver throws `IllegalArgumentException(msg)`. */
    def fail(msg: String): Unit = if (problem == null) problem = msg
  }

  /** Runs `perPartition` over each partition's rows of `cols` and returns
    * its results in partition order.
    */
  def scan[T: ClassTag](df: DataFrame, cols: Seq[String])(perPartition: Rows => T): Array[T] = {
    val input = df.select(cols.map(col): _*).queryExecution.analyzed
    input.output.foreach { a =>
      a.dataType match {
        case ByteType | ShortType | IntegerType | LongType =>
        case t => throw new IllegalArgumentException(s"column ${a.name} is ${t.sql}, not an integral type")
      }
    }
    val qe = new QueryExecution(df.queryExecution.sparkSession,
      Project(input.output.map(a => Alias(UpCast(a, IntegerType), a.name)()), input))
    qe.assertAnalyzed()
    val names = cols.toArray
    val parts = SQLExecution.withNewExecutionId(qe) {
      qe.toRdd.mapPartitions { it =>
        val rows = new Rows(it, names)
        val out = perPartition(rows)
        Iterator.single((out, rows.problem))
      }.collect()
    }
    parts.collectFirst { case (_, p) if p != null => p }
      .foreach(p => throw new IllegalArgumentException(p))
    parts.map(_._1)
  }
}
