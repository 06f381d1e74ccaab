package repro.cluster

/** Clustering objective: k-median (sum of distances, v_C) or k-means
  * (sum of squared distances, mu_C).
  */
sealed trait Objective {
  /** phi or phi^2, from squared distance. */
  def fromSq(dsq: Double): Double
}
case object Median extends Objective { def fromSq(dsq: Double): Double = math.sqrt(dsq) }
case object Means  extends Objective { def fromSq(dsq: Double): Double = dsq }

/** Dense weighted point-set utilities shared by all clustering code. */
object Weighted {
  type Pt = Array[Double]

  def distSq(a: Pt, b: Pt): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  def dist(a: Pt, b: Pt): Double = math.sqrt(distSq(a, b))

  /** Squared distance to the nearest center. */
  def minDistSq(p: Pt, centers: Array[Pt]): Double = {
    var best = Double.PositiveInfinity; var i = 0
    while (i < centers.length) { val d = distSq(p, centers(i)); if (d < best) best = d; i += 1 }
    best
  }

  def nearest(p: Pt, centers: Array[Pt]): Int = {
    var best = Double.PositiveInfinity; var bi = 0; var i = 0
    while (i < centers.length) { val d = distSq(p, centers(i)); if (d < best) { best = d; bi = i }; i += 1 }
    bi
  }

  /** v_C / mu_C over a weighted point set. */
  def cost(pts: Array[Pt], w: Array[Double], centers: Array[Pt], obj: Objective): Double = {
    var s = 0.0; var i = 0
    while (i < pts.length) { s += w(i) * obj.fromSq(minDistSq(pts(i), centers)); i += 1 }
    s
  }
}
