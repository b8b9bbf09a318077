package repro.perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.jdk.CollectionConverters._
import repro.engine.RunResult

/** The parts of a [[RunResult]] that must stay bit-identical while the
  * library is refactored: the matching, the work counters, and the bits
  * of the final failure-probability bound.
  */
final case class Fingerprint(
    dataset: String,
    seed: Long,
    sf: Double,
    query: String,
    approach: String,
    start: Int,
    matching: Seq[Int],
    tuplesRead: Long,
    blocksRead: Long,
    blocksConsidered: Long,
    probesCold: Long,
    probesWarm: Long,
    lineMisses: Long,
    statsIters: Long,
    deltaUpperBits: Long,
) {
  def key: Fingerprint.Key = (dataset, seed, sf, query, approach, start)

  def line: String = Seq(
    dataset, seed, sf, query, approach, start, matching.mkString(","), tuplesRead, blocksRead,
    blocksConsidered, probesCold, probesWarm, lineMisses, statsIters, f"$deltaUpperBits%016x",
  ).mkString("\t")

  /** Field-by-field differences from `expected`, empty when equal. */
  def diff(expected: Fingerprint): Seq[String] =
    productElementNames.zip(productIterator).zip(expected.productIterator).collect {
      case ((name, got), want) if got != want => s"$name: got $got, golden $want"
    }.toSeq
}

object Fingerprint {
  /** Identifies a golden run: dataset, data seed, sf, query, approach, start block. */
  type Key = (String, Long, Double, String, String, Int)

  val Header: String = "# " + Seq(
    "dataset", "seed", "sf", "query", "approach", "start", "matching", "tuplesRead", "blocksRead",
    "blocksConsidered", "probesCold", "probesWarm", "lineMisses", "statsIters", "deltaUpperBits",
  ).mkString("\t")

  def of(dataset: String, seed: Long, sf: Double, query: String, start: Int, r: RunResult): Fingerprint =
    Fingerprint(dataset, seed, sf, query, r.approach, start, r.matching.toSeq, r.cost.tuplesRead,
      r.cost.blocksRead, r.cost.blocksConsidered, r.cost.probesCold, r.cost.probesWarm,
      r.cost.lineMisses, r.cost.statsIters, java.lang.Double.doubleToRawLongBits(r.deltaUpper))

  def parse(line: String): Fingerprint = {
    val f = line.split("\t", -1)
    require(f.length == 15, s"golden line has ${f.length} fields, expected 15: $line")
    Fingerprint(f(0), f(1).toLong, f(2).toDouble, f(3), f(4), f(5).toInt,
      if (f(6).isEmpty) Seq.empty else f(6).split(",").toSeq.map(_.toInt),
      f(7).toLong, f(8).toLong, f(9).toLong, f(10).toLong, f(11).toLong, f(12).toLong,
      f(13).toLong, java.lang.Long.parseUnsignedLong(f(14), 16))
  }

  def read(path: Path): Seq[Fingerprint] =
    Files.readAllLines(path, UTF_8).asScala.toSeq
      .filterNot(l => l.isEmpty || l.startsWith("#")).map(parse)

  def write(path: Path, fps: Seq[Fingerprint]): Unit =
    Files.write(path, (Header +: fps.map(_.line)).asJava, UTF_8)
}
