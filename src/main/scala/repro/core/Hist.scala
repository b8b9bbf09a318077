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
    var total = 0L
    var i = 0
    while (i < counts.length) { total += counts(i); i += 1 }
    dist(counts, total, target)
  }

  /** [[dist]] for counts whose sum `total` is already known. */
  def dist(counts: Array[Long], total: Long, target: Array[Double]): Double = {
    require(counts.length == target.length, s"length mismatch: ${counts.length} vs ${target.length}")
    var s = 0.0
    var i = 0
    while (i < counts.length) {
      val p = if (total == 0L) 0.0 else counts(i).toDouble / total
      s += math.abs(p - target(i))
      i += 1
    }
    s
  }

  /** Uniform distribution over `n` groups. */
  def uniform(n: Int): Array[Double] = Array.fill(n)(1.0 / n)
}
