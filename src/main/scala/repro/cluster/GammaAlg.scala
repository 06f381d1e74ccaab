package repro.cluster

import scala.util.Random
import Weighted._

/** A gamma-approximation clustering algorithm in the standard computational
  * setting (the paper's GkMedianAlg / GkMeansAlg / Dk*Alg black boxes).
  * Operates on a weighted point set of size |C| = O(k^2 polylog N) — the
  * coresets the relational algorithms hand it — so plain driver-side
  * implementations are the right tool (T_gamma(k^2 log N) in Table 1).
  */
trait GammaAlg {
  def objective: Objective
  /** Whether the centers are input points (the Dk*Alg variants). */
  def discrete: Boolean
  /** Returns k centers (fewer if fewer distinct points exist). */
  def cluster(pts: Array[Pt], w: Array[Double], k: Int, rng: Random): Array[Pt]
}

object GammaAlg {
  /** D^l-sampling seeding (l=2: k-means++ of [11]; l=1: its k-median analog). */
  private[repro] def seed(pts: Array[Pt], w: Array[Double], k: Int, rng: Random,
                          obj: Objective): Array[Pt] = {
    require(pts.nonEmpty, "cannot seed on empty point set")
    val centers = scala.collection.mutable.ArrayBuffer.empty[Pt]
    // first center: weight-proportional
    centers += pts(pick(w, rng))
    val d = new Array[Double](pts.length)
    var i = 0
    while (i < pts.length) { d(i) = obj.fromSq(distSq(pts(i), centers(0))); i += 1 }
    while (centers.length < k) {
      val probs = new Array[Double](pts.length)
      var tot = 0.0
      var j = 0
      while (j < pts.length) { probs(j) = w(j) * d(j); tot += probs(j); j += 1 }
      if (tot <= 0) return centers.toArray // all mass already on centers
      val next = pts(pick(probs, rng))
      centers += next
      var t = 0
      while (t < pts.length) {
        val nd = obj.fromSq(distSq(pts(t), next))
        if (nd < d(t)) d(t) = nd
        t += 1
      }
    }
    centers.toArray
  }

  private def pick(wgt: Array[Double], rng: Random): Int = {
    var tot = 0.0; var i = 0
    while (i < wgt.length) { tot += wgt(i); i += 1 }
    var u = rng.nextDouble() * tot
    i = 0
    while (i < wgt.length - 1) { u -= wgt(i); if (u <= 0) return i; i += 1 }
    wgt.length - 1
  }

  /** Snap each center to the nearest input point (discrete variants return
    * S ⊆ P); collisions fall back to the next nearest unused point.
    */
  private[cluster] def snapToPoints(centers: Array[Pt], pts: Array[Pt]): Array[Pt] = {
    val used = scala.collection.mutable.Set.empty[Int]
    centers.map { c =>
      var bi = -1; var best = Double.PositiveInfinity
      var i = 0
      while (i < pts.length) {
        if (!used.contains(i)) {
          val d = distSq(c, pts(i))
          if (d < best) { best = d; bi = i }
        }
        i += 1
      }
      if (bi < 0) bi = 0 // more centers than points; duplicates are fine
      used += bi
      pts(bi)
    }
  }
}

/** Weighted k-means: k-means++ seeding + weighted Lloyd iterations.
  * `discrete = true` gives DkMeansAlg (centers ⊆ input points).
  */
final case class KMeansAlg(discrete: Boolean = false, maxIter: Int = 40) extends GammaAlg {
  val objective: Objective = Means

  def cluster(pts: Array[Pt], w: Array[Double], k: Int, rng: Random): Array[Pt] = {
    if (pts.isEmpty) return Array.empty
    var centers = GammaAlg.seed(pts, w, k, rng, Means)
    val dimN = pts(0).length
    var it = 0
    var moved = true
    while (it < maxIter && moved) {
      val sums = Array.fill(centers.length)(new Array[Double](dimN))
      val mass = new Array[Double](centers.length)
      var i = 0
      while (i < pts.length) {
        val a = nearest(pts(i), centers)
        mass(a) += w(i)
        var j = 0
        while (j < dimN) { sums(a)(j) += w(i) * pts(i)(j); j += 1 }
        i += 1
      }
      moved = false
      val next = centers.indices.map { c =>
        if (mass(c) > 0) {
          val m = sums(c).map(_ / mass(c))
          if (distSq(m, centers(c)) > 1e-18) moved = true
          m
        } else { // empty cluster: reseed at the current farthest point
          var bi = 0; var best = -1.0; var t = 0
          while (t < pts.length) {
            val d = w(t) * minDistSq(pts(t), centers)
            if (d > best) { best = d; bi = t }
            t += 1
          }
          moved = true
          pts(bi).clone()
        }
      }.toArray
      centers = next
      it += 1
    }
    if (discrete) GammaAlg.snapToPoints(centers, pts) else centers
  }
}

/** Weighted k-median: D^1-sampling seeding + alternation where each cluster's
  * center is recomputed as its weighted geometric median (Weiszfeld).
  * `discrete = true` gives DkMedianAlg (centers ⊆ input points).
  */
final case class KMedianAlg(discrete: Boolean = false, maxIter: Int = 30,
                            weiszfeldIter: Int = 25) extends GammaAlg {
  val objective: Objective = Median

  def cluster(pts: Array[Pt], w: Array[Double], k: Int, rng: Random): Array[Pt] = {
    if (pts.isEmpty) return Array.empty
    var centers = GammaAlg.seed(pts, w, k, rng, Median)
    var bestCost = Weighted.cost(pts, w, centers, Median)
    var it = 0
    var improved = true
    while (it < maxIter && improved) {
      val assign = pts.map(p => nearest(p, centers))
      val next = centers.indices.map { c =>
        val idx = pts.indices.filter(assign(_) == c)
        if (idx.isEmpty) { // reseed empty cluster
          var bi = 0; var best = -1.0
          pts.indices.foreach { t =>
            val d = w(t) * math.sqrt(minDistSq(pts(t), centers))
            if (d > best) { best = d; bi = t }
          }
          pts(bi).clone()
        } else weiszfeld(idx.map(pts(_)).toArray, idx.map(w(_)).toArray, centers(c))
      }.toArray
      val nc = Weighted.cost(pts, w, next, Median)
      if (nc < bestCost - 1e-12 * (math.abs(bestCost) + 1)) { centers = next; bestCost = nc }
      else improved = false
      it += 1
    }
    if (discrete) GammaAlg.snapToPoints(centers, pts) else centers
  }

  /** Weighted geometric median by Weiszfeld's iteration, started at `init`. */
  private def weiszfeld(pts: Array[Pt], w: Array[Double], init: Pt): Pt = {
    var cur = init.clone()
    var it = 0
    while (it < weiszfeldIter) {
      val num = new Array[Double](cur.length)
      var den = 0.0
      var i = 0
      while (i < pts.length) {
        val d = math.max(dist(pts(i), cur), 1e-12)
        val c = w(i) / d
        var j = 0
        while (j < cur.length) { num(j) += c * pts(i)(j); j += 1 }
        den += c
        i += 1
      }
      if (den <= 0) return cur
      val next = num.map(_ / den)
      val moved = distSq(next, cur)
      cur = next
      if (moved < 1e-18) return cur
      it += 1
    }
    cur
  }
}
