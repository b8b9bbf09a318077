package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Hist

/** A generated dataset plus the metadata the engine needs.
  *
  * @param name      dataset name (FLIGHTS / TAXI / POLICE)
  * @param df        rows with `id`, one column per attribute, and `block`
  * @param rows      exact tuple count
  * @param numBlocks number of storage blocks (random tuple-to-block map)
  * @param cards     cardinality of every categorical attribute
  * @param design    the planted per-candidate distributions, keyed by
  *                  "zCol->xCol" — used by tests to check realized shapes
  */
final case class Dataset(
    name: String,
    df: DataFrame,
    rows: Long,
    numBlocks: Int,
    cards: Map[String, Int],
    design: Map[String, Array[Array[Double]]],
)

/** How a query's visual target vector is obtained (Table 3's "target"). */
sealed trait TargetSpec
object TargetSpec {
  /** Target = the candidate whose true histogram is l1-closest to uniform. */
  case object ClosestToUniform extends TargetSpec
  /** Target = candidate `z`'s own true histogram (e.g. "Chicago ORD"). */
  final case class FromCandidate(z: Int) extends TargetSpec
  /** An explicit analyst-drawn shape (FLIGHTS-q3's day-of-week vector). */
  final case class Explicit(vec: Array[Double]) extends TargetSpec
}

/** One histogram-matching query (a row of the paper's Table 3), plus the
  * paper's measured numbers from Table 4 for side-by-side reporting.
  * Validated here, so that a bad query fails where it is written.
  */
final case class QuerySpec(
    dataset: String,
    name: String,
    zCol: String,
    xCol: String,
    vz: Int,
    vx: Int,
    k: Int,
    target: TargetSpec,
    paperScanSec: Double,
    paperSpeedups: Map[String, Double],
) {
  require(vz >= 1, s"vz must be >= 1, got $vz")
  require(vx >= 1, s"vx must be >= 1, got $vx")
  require(k >= 1, s"k must be >= 1, got $k")
  require(zCol != xCol, s"zCol and xCol must differ, both are $zCol")
  target match {
    case TargetSpec.Explicit(vec) =>
      require(vec.length == vx, s"explicit target has ${vec.length} bins, expected vx=$vx")
    case TargetSpec.FromCandidate(z) =>
      require(z >= 0 && z < vz, s"target candidate $z out of [0, $vz)")
    case TargetSpec.ClosestToUniform =>
  }
}

/** The paper's evaluation workload (Section 5.1, Tables 2 and 3), rebuilt
  * synthetically.
  *
  * Substitutions (documented in DESIGN.md):
  *   - The real FLIGHTS/TAXI/POLICE files are unavailable offline; each is
  *     replaced by a generator planting per-candidate distributions with
  *     the same *distance structure* the paper's queries exercise
  *     (frequent vs rare top-k, high-cardinality Z, sharp vs soft
  *     boundaries), at ~1/200 the paper's tuple counts.
  *   - TAXI's |V_Z| is 2000 (paper: 7548) and POLICE-q3's |V_Z| is 800
  *     (paper: 2110) so that per-candidate tuple counts at our scale stay
  *     above the paper's own 2000-tuple pruning threshold in spirit
  *     (candidate count / samples-needed ratios are preserved).
  */
object Workloads {
  /** Tuples per storage block; the paper uses 4 KiB blocks (~64 tuples). */
  val TuplesPerBlock = 64

  /** Default guarantee parameters for benches. The paper used eps=0.06
    * at 10^8-tuple scale; at our ~10^6-tuple scale the same
    * samples-to-population ratios arise at eps=0.15 (Theorem 1's n ~
    * 1/eps^2 — see DESIGN.md "Scaling eps").
    */
  val DefaultEps = 0.15
  val DefaultDelta = 0.01

  private def scaled(base: Long, sf: Double): Long = math.max(8L, math.round(base * sf))

  /** Evenly spread value in [lo, hi] for index i of n. */
  private def spread(i: Int, n: Int, lo: Double, hi: Double): Double =
    if (n <= 1) lo else lo + (hi - lo) * i / (n - 1.0)

  /** A varied "far" alternative shape for candidate z over vx groups. */
  private def alt(vx: Int, z: Int): Array[Double] = Planted.peaked(vx, (z * 7 + 3) % vx, 0.92)

  // ------------------------------------------------------------------
  // FLIGHTS: |Origin| = 161; X in {DepHour(24), DayOfWeek(7), Dest(161)}.
  // Candidate strata: z 0..14 hub (frequent), 15..149 mid, 150..160 rare.
  // ------------------------------------------------------------------
  val FlightsVz = 161
  val FlightsDayOfWeekTarget: Array[Double] =
    Array(0.25, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125)

  def flightsFreq(sf: Double): Array[Long] = Array.tabulate(FlightsVz) { z =>
    if (z < 15) scaled(120000, sf)
    else if (z < 150) scaled(8000, sf)
    else scaled(500, sf)
  }

  /** DepHour (24) per-origin distributions: hubs cluster around a bimodal
    * "business day" shape H0 (q1's target neighbourhood); rare origins
    * cluster around a "late night" shape H1 (q2's target neighbourhood);
    * mid origins are far from both.
    */
  def flightsDepHour: Array[Array[Double]] = {
    val h0 = Planted.bimodal(24, 8, 17)
    val h1 = Planted.bimodal(24, 2, 4, sigma = 1.5)
    Array.tabulate(FlightsVz) { z =>
      if (z == 0) h0
      else if (z < 10) Planted.mix(h0, alt(24, z), 0.02 + 0.009 * (z - 1))
      else if (z < 15) Planted.mix(h0, alt(24, z), 0.25)
      else if (z < 150) Planted.mix(h0, alt(24, z), spread(z - 15, 135, 0.35, 0.95))
      else if (z == 150) h1
      else if (z < 160) Planted.mix(h1, alt(24, z), 0.02 + 0.01 * (z - 151))
      else Planted.mix(h1, alt(24, z), 0.25)
    }
  }

  /** DayOfWeek (7) per-origin distributions: five rare origins (150..154)
    * match q3's explicit target; everyone else is far.
    */
  def flightsDayOfWeek: Array[Array[Double]] = {
    val t = FlightsDayOfWeekTarget
    Array.tabulate(FlightsVz) { z =>
      if (z >= 150 && z < 155) Planted.mix(t, alt(7, z), 0.02 * (z - 150))
      else Planted.mix(t, alt(7, z), spread(z % 140, 140, 0.3, 0.8))
    }
  }

  /** Dest (161) per-origin distributions for q4: hubs near uniform (the
    * closest-to-uniform target), everyone else progressively far.
    */
  def flightsDest: Array[Array[Double]] = {
    val u = Hist.uniform(FlightsVz)
    Array.tabulate(FlightsVz) { z =>
      if (z < 10) Planted.mix(u, alt(FlightsVz, z), 0.01 + 0.004 * z)
      else if (z < 15) Planted.mix(u, alt(FlightsVz, z), 0.15)
      else Planted.mix(u, alt(FlightsVz, z), spread(z - 15, 146, 0.4, 0.95))
    }
  }

  def flights(spark: SparkSession, sf: Double, seed: Long = 11): Dataset = {
    val freq = flightsFreq(sf)
    val rows = freq.sum
    val specs = Seq(
      RangeCol("origin", freq),
      CondCol("dep_hour", "origin", flightsDepHour, 1),
      CondCol("day_of_week", "origin", flightsDayOfWeek, 2),
      CondCol("dest", "origin", flightsDest, 3),
      NumCol("dep_delay", -10, 180, 4),
      NumCol("arr_delay", -20, 200, 5),
      NumCol("day_of_month", 1, 31, 6),
    )
    val (df, nb) = Gen.withBlocks(Gen.dataset(spark, specs, seed), rows, TuplesPerBlock, seed + 100)
    Dataset("FLIGHTS", df, rows, nb,
      Map("origin" -> FlightsVz, "dep_hour" -> 24, "day_of_week" -> 7, "dest" -> FlightsVz),
      Map("origin->dep_hour" -> flightsDepHour,
          "origin->day_of_week" -> flightsDayOfWeek,
          "origin->dest" -> flightsDest))
  }

  // ------------------------------------------------------------------
  // TAXI: |Location| = 2000; X in {HourOfDay(24), MonthOfYear(12)}.
  // Strata: z 0..14 busy (near uniform = near target), 15..24 boundary
  // stragglers (rare — force block pruning), 25.. far tail.
  // ------------------------------------------------------------------
  val TaxiVz = 2000

  def taxiFreq(sf: Double): Array[Long] = Array.tabulate(TaxiVz) { z =>
    if (z < 15) scaled(40000, sf)
    else if (z < 21) scaled(400, sf)
    else scaled(900 + (z % 8) * 100, sf)
  }

  /** Strata: z 0..9 busy near-uniform (the top-k, with a spread so the
    * k-boundary is not inside a tie), z 10..14 busy but clearly outside,
    * z 15..20 rare boundary stragglers (resolved only by exhausting
    * their blocks — this is what AnyActive pruning exploits), the rest a
    * far tail.
    */
  private def taxiDists(vx: Int): Array[Array[Double]] = {
    val u = Hist.uniform(vx)
    Array.tabulate(TaxiVz) { z =>
      if (z < 10) Planted.mix(u, alt(vx, z), 0.005 + 0.004 * z)
      else if (z < 15) Planted.mix(u, alt(vx, z), 0.15 + 0.015 * (z - 10))
      else if (z < 21) Planted.mix(u, alt(vx, z), 0.16 + 0.008 * (z - 15))
      else Planted.mix(u, alt(vx, z), spread((z * 13) % 1979, 1979, 0.65, 0.98))
    }
  }

  def taxiHour: Array[Array[Double]] = taxiDists(24)
  def taxiMonth: Array[Array[Double]] = taxiDists(12)

  def taxi(spark: SparkSession, sf: Double, seed: Long = 22): Dataset = {
    val freq = taxiFreq(sf)
    val rows = freq.sum
    val specs = Seq(
      RangeCol("location", freq),
      CondCol("hour_of_day", "location", taxiHour, 1),
      CondCol("month_of_year", "location", taxiMonth, 2),
      NumCol("trip_time", 1, 120, 3),
      NumCol("trip_dist", 0.1, 40, 4),
      NumCol("passengers", 1, 6, 5),
      NumCol("fare", 2.5, 200, 6),
    )
    val (df, nb) = Gen.withBlocks(Gen.dataset(spark, specs, seed), rows, TuplesPerBlock, seed + 100)
    Dataset("TAXI", df, rows, nb,
      Map("location" -> TaxiVz, "hour_of_day" -> 24, "month_of_year" -> 12),
      Map("location->hour_of_day" -> taxiHour, "location->month_of_year" -> taxiMonth))
  }

  // ------------------------------------------------------------------
  // POLICE: |RoadID| = 191 (q1: Contraband(2), q2: OfficerRace(5));
  // |Violation| = 800 (q3: DriverGender(2)). No candidate below the
  // paper's 2000-tuple pruning floor at sf = 1 except by design.
  // ------------------------------------------------------------------
  val PoliceVz = 191
  val PoliceViolations = 800

  def policeFreq(sf: Double): Array[Long] = Array.tabulate(PoliceVz) { z =>
    if (z < 15) scaled(30000, sf)
    else scaled(13800 - math.round(61.0 * (z - 15)), sf) // 13800 down to ~3100
  }

  /** Contraband [found, not-found] per road: exactly ten roads cluster
    * near 50/50 (the top-k band, near the closest-to-uniform target),
    * five sit clearly outside, the bulk is strongly skewed. A >k cluster
    * straddling the k-boundary would force exhaustive reads, which the
    * paper's frequent-top-k queries do not exhibit.
    */
  def policeContraband: Array[Array[Double]] = Array.tabulate(PoliceVz) { z =>
    val a =
      if (z < 10) 0.5 + (z - 4.5) * 0.003
      else if (z < 15) 0.40
      else 0.28 - 0.18 * spread((z * 31) % 176, 176, 0.0, 1.0)
    Array(a, 1.0 - a)
  }

  /** OfficerRace (5) per road: ten roads near uniform, five outside, bulk far. */
  def policeRace: Array[Array[Double]] = {
    val u = Hist.uniform(5)
    Array.tabulate(PoliceVz) { z =>
      if (z < 10) Planted.mix(u, alt(5, z), 0.004 * (z + 1))
      else if (z < 15) Planted.mix(u, alt(5, z), 0.15)
      else Planted.mix(u, alt(5, z), spread((z * 17) % 176, 176, 0.55, 0.95))
    }
  }

  /** Violation frequencies (relative weights for the i.i.d. draw). */
  def policeViolationWeights: Array[Double] = Array.tabulate(PoliceViolations) { v =>
    if (v < 8) 15.0 else 1.0 + 0.3 * ((v * 29) % 97) / 97.0
  }

  /** DriverGender [g1, g2] per violation: exactly five violations near
    * 50/50 (k = 5 for q3), three clearly outside, bulk far.
    */
  def policeGender: Array[Array[Double]] = Array.tabulate(PoliceViolations) { v =>
    val b =
      if (v < 5) 0.5 + (v - 2) * 0.004
      else if (v < 8) 0.40 - 0.02 * (v - 5)
      else 0.08 + 0.14 * spread((v * 37) % 792, 792, 0.0, 1.0)
    Array(b, 1.0 - b)
  }

  def police(spark: SparkSession, sf: Double, seed: Long = 33): Dataset = {
    val freq = policeFreq(sf)
    val rows = freq.sum
    val specs = Seq(
      RangeCol("road_id", freq),
      CondCol("contraband", "road_id", policeContraband, 1),
      CondCol("officer_race", "road_id", policeRace, 2),
      IidCol("violation", policeViolationWeights, 3),
      CondCol("driver_gender", "violation", policeGender, 4),
      NumCol("county", 0, 39, 5),
      NumCol("stop_hour", 0, 24, 6),
      NumCol("driver_age", 16, 90, 7),
      NumCol("search_conducted", 0, 2, 8),
      NumCol("stop_outcome", 0, 5, 9),
    )
    val (df, nb) = Gen.withBlocks(Gen.dataset(spark, specs, seed), rows, TuplesPerBlock, seed + 100)
    Dataset("POLICE", df, rows, nb,
      Map("road_id" -> PoliceVz, "contraband" -> 2, "officer_race" -> 5,
          "violation" -> PoliceViolations, "driver_gender" -> 2),
      Map("road_id->contraband" -> policeContraband,
          "road_id->officer_race" -> policeRace,
          "violation->driver_gender" -> policeGender))
  }

  // ------------------------------------------------------------------
  // Queries — Table 3 rows, with Table 4's paper numbers attached.
  // ------------------------------------------------------------------
  import TargetSpec._

  val queries: Seq[QuerySpec] = Seq(
    QuerySpec("FLIGHTS", "q1", "origin", "dep_hour", FlightsVz, 24, 10, FromCandidate(0),
      18.313, Map("SlowMatch" -> 11.787, "ScanMatch" -> 14.133, "SyncMatch" -> 18.215, "FastMatch" -> 21.574)),
    QuerySpec("FLIGHTS", "q2", "origin", "dep_hour", FlightsVz, 24, 10, FromCandidate(150),
      18.185, Map("SlowMatch" -> 1.336, "ScanMatch" -> 1.654, "SyncMatch" -> 3.663, "FastMatch" -> 15.128)),
    QuerySpec("FLIGHTS", "q3", "origin", "day_of_week", FlightsVz, 7, 5, Explicit(FlightsDayOfWeekTarget),
      16.112, Map("SlowMatch" -> 0.995, "ScanMatch" -> 1.417, "SyncMatch" -> 2.244, "FastMatch" -> 7.347)),
    QuerySpec("FLIGHTS", "q4", "origin", "dest", FlightsVz, FlightsVz, 10, ClosestToUniform,
      25.983, Map("SlowMatch" -> 27.909, "ScanMatch" -> 30.670, "SyncMatch" -> 38.967, "FastMatch" -> 39.803)),
    QuerySpec("TAXI", "q1", "location", "hour_of_day", TaxiVz, 24, 10, ClosestToUniform,
      17.621, Map("SlowMatch" -> 0.992, "ScanMatch" -> 1.343, "SyncMatch" -> 0.144, "FastMatch" -> 12.790)),
    QuerySpec("TAXI", "q2", "location", "month_of_year", TaxiVz, 12, 10, ClosestToUniform,
      16.982, Map("SlowMatch" -> 1.001, "ScanMatch" -> 1.278, "SyncMatch" -> 0.137, "FastMatch" -> 7.338)),
    QuerySpec("POLICE", "q1", "road_id", "contraband", PoliceVz, 2, 10, ClosestToUniform,
      10.220, Map("SlowMatch" -> 9.660, "ScanMatch" -> 16.716, "SyncMatch" -> 15.695, "FastMatch" -> 22.329)),
    QuerySpec("POLICE", "q2", "road_id", "officer_race", PoliceVz, 5, 10, ClosestToUniform,
      10.181, Map("SlowMatch" -> 30.701, "ScanMatch" -> 46.829, "SyncMatch" -> 62.611, "FastMatch" -> 99.903)),
    QuerySpec("POLICE", "q3", "violation", "driver_gender", PoliceViolations, 2, 5, ClosestToUniform,
      10.134, Map("SlowMatch" -> 26.796, "ScanMatch" -> 44.921, "SyncMatch" -> 18.181, "FastMatch" -> 136.509)),
  )

  def dataset(spark: SparkSession, name: String, sf: Double): Dataset = name match {
    case "FLIGHTS" => flights(spark, sf)
    case "TAXI"    => taxi(spark, sf)
    case "POLICE"  => police(spark, sf)
    case other     => throw new IllegalArgumentException(s"unknown dataset $other")
  }
}
