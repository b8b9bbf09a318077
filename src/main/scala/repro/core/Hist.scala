package repro.core

/** Dense histogram / discrete-distribution vector utilities.
  *
  * A histogram is an `Array[Long]` of per-group counts over the value set
  * of the grouping attribute X (size `|V_X|`). A distribution is the
  * normalized `Array[Double]` variant. All distances are l1 (Definition 2
  * of the paper): `d(r, Q) = || r/sum(r) - Q/sum(Q) ||_1`, which equals
  * twice the total-variation distance.
  */
object Hist {

  /** Normalize counts into a probability vector. An all-zero histogram
    * (no samples yet) normalizes to the zero vector, which has l1
    * distance 1 from any distribution — callers treat "no samples" via
    * the confidence machinery, not via the distance.
    */
  def normalize(counts: Array[Long]): Array[Double] = {
    val total = counts.sum
    if (total == 0L) new Array[Double](counts.length)
    else counts.map(_.toDouble / total)
  }

  /** Normalize a real-valued target vector (e.g. an analyst-drawn shape). */
  def normalize(weights: Array[Double]): Array[Double] = {
    val total = weights.sum
    require(total > 0.0, "target vector must have positive mass")
    weights.map(_ / total)
  }

  /** l1 distance between two equal-length vectors. */
  def l1(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"length mismatch: ${a.length} vs ${b.length}")
    var i = 0; var s = 0.0
    while (i < a.length) { s += math.abs(a(i) - b(i)); i += 1 }
    s
  }

  /** Distance per Definition 2: normalize both sides, then l1. Computed in
    * place, with the arithmetic of `l1(normalize(counts), target)` in the
    * same order, so the result is bit-identical to it.
    */
  def dist(counts: Array[Long], target: Array[Double]): Double = {
    require(counts.length == target.length, s"length mismatch: ${counts.length} vs ${target.length}")
    var total = 0L
    var i = 0
    while (i < counts.length) { total += counts(i); i += 1 }
    dist(counts, 0, total, target)
  }

  /** [[dist]] of the histogram `counts(from until from + target.length)`,
    * whose sum `total` is already known. Counts are non-negative.
    *
    * While the total is below 2^52, each count (at most the total) is
    * converted as the double 2^52 + count, built from its bits, minus 2^52:
    * exactly `count.toDouble`, without the long-to-double instruction,
    * whose result register depends on its previous value and so chains
    * the loop's iterations (with it, the TAXI tau refresh took 2× as long).
    */
  def dist(counts: Array[Long], from: Int, total: Long, target: Array[Double]): Double = {
    val small = total < TwoTo52
    val t = total.toDouble
    var s = 0.0
    var i = 0
    while (i < target.length) {
      val c = counts(from + i)
      val p =
        if (total == 0L) 0.0
        else (if (small) java.lang.Double.longBitsToDouble(TwoTo52Bits | c) - TwoTo52 else c.toDouble) / t
      s += math.abs(p - target(i))
      i += 1
    }
    s
  }

  private final val TwoTo52 = 4503599627370496L // 2^52
  private final val TwoTo52Bits = 0x4330000000000000L // the bits of 2^52 as a double

  /** Uniform distribution over `n` groups. */
  def uniform(n: Int): Array[Double] = Array.fill(n)(1.0 / n)
}
