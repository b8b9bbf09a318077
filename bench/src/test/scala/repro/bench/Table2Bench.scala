package repro.bench

import repro.SparkSpec
import repro.data.Workloads

/** Reproduces Table 2: "Descriptions of Datasets".
  *
  * Prints our synthetic datasets' size / tuple count / attribute count
  * next to the paper's. The paper replicated its raw files to reach
  * 10^8-tuple scale; we generate at REPRO_BENCH_SF (default 1.0,
  * ~2-3M tuples — the ~1/200-scale substitution documented in DESIGN.md).
  */
class Table2Bench extends SparkSpec {

  private val sf = sys.env.getOrElse("REPRO_BENCH_SF", "1.0").toDouble

  /** Paper's Table 2 rows: (size, tuples, attributes, replications). */
  private val paper = Map(
    "FLIGHTS" -> ("32 GiB", 604e6, 7, 5),
    "TAXI"    -> ("36 GiB", 677e6, 7, 4),
    "POLICE"  -> ("29 GiB", 382e6, 10, 72),
  )

  private lazy val datasets =
    Seq("FLIGHTS", "TAXI", "POLICE").map(n => n -> Workloads.dataset(spark, n, sf))

  test("Table 2: dataset summaries") {
    println(f"${"Dataset"}%-9s ${"#Tuples"}%12s ${"#Attr"}%6s ${"#Blocks"}%8s ${"~Size"}%10s   " +
      "(paper: #Tuples, #Attr, Size, Repl)")
    datasets.foreach { case (name, ds) =>
      val attrs = ds.df.columns.count(c => c != "id" && c != "block")
      val (pSize, pTuples, pAttrs, pRepl) = paper(name)
      // ~50 bytes/tuple, in the same ballpark as the paper's row width
      val sizeMiB = ds.rows * 50.0 / (1 << 20)
      println(f"$name%-9s ${ds.rows}%12d $attrs%6d ${ds.numBlocks}%8d $sizeMiB%8.1fMiB   " +
        f"($pTuples%12.0f, $pAttrs%d, $pSize, ${pRepl}x)")
      assert(ds.df.count() == ds.rows)
      assert(attrs == pAttrs, s"$name should have $pAttrs attributes like the paper")
    }
  }

  test("Table 2: per-candidate minimums respect the paper's pruning floor in spirit") {
    // the paper pruned attribute values appearing < 2000 times; our scale
    // is ~1/200, so candidates must not be vanishingly small except the
    // deliberately rare strata
    datasets.foreach { case (name, ds) =>
      val counts = ds.df.groupBy(Workloads.queries.find(_.dataset == name).get.zCol)
        .count().collect().map(_.getLong(1))
      assert(counts.min >= math.max(4, (200 * sf).toLong),
        s"$name has a candidate with only ${counts.min} tuples")
    }
  }
}
