package repro.perfbench

/** Order statistics for timing samples. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.length
  }

  /** Mean over groups of each group's median. Unlike the median of the
    * pooled samples, it does not jump between groups whose costs differ.
    */
  def medianPerGroup(xs: Seq[(String, Double)]): Double =
    mean(xs.groupBy(_._1).values.map(g => median(g.map(_._2))).toSeq)

  /** A tail value, the percentile it sits at, and the sample count. */
  final case class Tail(value: Double, percentile: Double, samples: Int)

  /** The highest percentile that still has `above` samples above it: the
    * (n - above)-th smallest of n samples, at percentile
    * 100 * (n - above) / n. None when there are `above` samples or fewer.
    */
  def tail(xs: Seq[Double], above: Int = 10): Option[Tail] = {
    val n = xs.length
    if (n <= above) None
    else {
      val rank = n - above
      Some(Tail(xs.sorted.apply(rank - 1), 100.0 * rank / n, n))
    }
  }
}
