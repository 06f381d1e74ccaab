package repro.baselines

import repro.cluster.GammaAlg
import repro.cluster.Weighted.Pt
import repro.join.{AcyclicQuery, LocalJoinIndex}
import scala.util.Random

/** Curtin et al. [23] — rk-means, the grid-coreset baseline of Table 1.
  *
  * 1. For each of the d dimensions, solve the weighted 1-D k-means on the
  *    exact projection histogram (from a [[LocalJoinIndex]]) — k centers per dim.
  * 2. Every join tuple snaps to the grid cell given by its per-dimension
  *    nearest centers; there are at most k^d nonempty cells (the k^m factor
  *    in Table 1's running time).
  * 3. Cell weights |q(D) ∩ cell| are exact and are computed WITHOUT
  *    materializing the join: CountRect calls on the same index ([[grid]]).
  * 4. The weighted gamma-algorithm runs on the grid points.
  */
object RkMeans {
  /** `totalWeight` must equal |q(D)| — the grid cells partition the join. */
  final case class Result(centers: Array[Pt], gridSize: Int, totalWeight: Double)

  def run(q: AcyclicQuery, k: Int, gamma: GammaAlg, seed: Long): Result = {
    val rng = new Random(seed)
    val index = LocalJoinIndex.build(q)
    // 1. per-dimension centers, sorted, in the index's attribute order
    val dimCenters = index.attrs.toSeq.map { a =>
      val hist = index.histogram(a)
      gamma.cluster(hist.map(h => Array(h._1)), hist.map(_._2), k, rng).map(_(0)).sorted
    }
    val (pts, w) = grid(index, dimCenters).unzip
    Result(gamma.cluster(pts, w, k, rng), pts.length, w.sum)
  }

  /** The nonempty grid cells with their exact counts |q(D) ∩ cell|, each as
    * its grid point (one center per dimension), in lexicographic cell order.
    * `centers(j)` holds the sorted centers of the index's dimension j; its
    * cell i is (mid_{i-1}, mid_i] between consecutive midpoints, so a value
    * on a midpoint goes to the lower cell. The walk fixes one dimension at a
    * time and skips every prefix box that counts 0, so the CountRect calls
    * grow with the nonempty cells, not with k^d.
    */
  def grid(index: LocalJoinIndex, centers: Seq[Array[Double]]): Array[(Pt, Double)] = {
    def walk(j: Int, lo: Array[Double], hi: Array[Double]): Seq[(List[Double], Double)] = {
      val cs = centers(j)
      cs.indices.flatMap { i =>
        val (l, h) = (lo.clone(), hi.clone())
        if (i > 0) l(j) = math.nextUp((cs(i - 1) + cs(i)) / 2)
        if (i < cs.length - 1) h(j) = (cs(i) + cs(i + 1)) / 2
        val count = index.countBox(l, h)
        if (count == 0) Nil
        else if (j == index.dim - 1) Seq(List(cs(i)) -> count)
        else walk(j + 1, l, h).map { case (p, c) => (cs(i) :: p, c) }
      }
    }
    val (lo, hi) = index.fullBox
    walk(0, lo, hi).map { case (p, c) => p.toArray -> c }.toArray
  }
}
