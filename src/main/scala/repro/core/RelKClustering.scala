package repro.core

import repro.cluster._
import repro.cluster.Weighted.Pt
import repro.join.{AcyclicQuery, LocalJoinIndex}
import scala.util.Random

/** Which RelClustering engine the inner nodes of Algorithm 3 use. */
sealed trait Mode
/** Algorithm 2 over one shared uniform join sample (bench scale). */
case object FastBatched extends Mode
/** Algorithm 2 exactly as in the pseudocode (per-cell SampleRect/CountRect). */
case object FastFaithful extends Mode
/** Algorithm 1 (deterministic, exact counts). */
case object SlowDeterministic extends Mode

/** Result of relational k-median / k-means clustering. */
final case class RelKResult(
    attrs: Seq[String],       // coordinate order of the centers
    centers: Array[Pt],       // k centers in R^d
    rU: Double,               // cost certificate (Equation 5/6)
    nJoin: Double,            // |q(D)|
    maxCoresetSize: Int
)

/** Algorithm 3 — Rel-K-Median / Rel-K-Means.
  *
  * Collects each input relation once into a [[LocalJoinIndex]], which drops
  * the dangling rows on the driver (no other Spark work), then builds a
  * balanced binary tree over the attributes in local memory. Each leaf
  * solves the exact weighted 1-D problem on the projection histogram H_u,
  * read off the index (never materializing the join). Each inner node u
  * with children v, z takes X = S_v x S_z, r = r_v + r_z — an
  * alpha-approximation of OPT on q_u(D) by Lemma 4.1 / A.9 — and refines it
  * to exactly k centers via RelClusteringFast/Slow (Section 3). A discrete
  * `gamma` (centers ⊆ q(D)) selects the discrete variants' alpha.
  */
object RelKClustering {

  def run(q: AcyclicQuery, k: Int, gamma: GammaAlg, conf: CoreConf,
          mode: Mode = FastBatched, attrsOverride: Option[Seq[String]] = None): RelKResult = {
    val index = LocalJoinIndex.build(q)
    val n = index.n
    require(n > 0, "join result is empty")
    val rng = new Random(conf.seed)

    val attrs = attrsOverride.getOrElse(index.attrs.toSeq)
    val dimsOf = attrs.map(index.attrIdx).toArray

    val sample: Array[Array[Double]] =
      if (mode == FastBatched) index.sampleUniform(conf.sampleSize, rng) else Array.empty

    // alpha of Lemma 4.1 / A.9 (gamma treated as 1 for our heuristic
    // gamma-algorithms): sqrt(2)-inflated for the median objective, doubled
    // constants for the discrete variants.
    val obj = gamma.objective
    val alpha: Double = {
      val base = obj match {
        case Median => (1 + conf.epsilon) * math.sqrt(2.0)
        case Means  => (1 + conf.epsilon)
      }
      if (gamma.discrete) 2 * (2 + conf.epsilon) / (1 + conf.epsilon) * base else base
    }

    var maxCoreset = 0

    /** Recurse over the attr slice [lo, hi); returns centers over those dims
      * (in slice order) and r_u.
      */
    def solve(lo: Int, hi: Int): (Array[Pt], Double) = {
      if (hi - lo == 1) {
        val hist = index.histogram(attrs(lo))
        val pts = hist.map(h => Array(h._1))
        val w = hist.map(_._2)
        val s = gamma.cluster(pts, w, k, rng)
        val rU = Weighted.cost(pts, w, s, obj) // exact at leaves
        (s, rU)
      } else {
        val mid = lo + (hi - lo) / 2
        val (sv, rv) = solve(lo, mid)
        val (sz, rz) = solve(mid, hi)
        val x = for (a <- sv; b <- sz) yield a ++ b
        val r = rv + rz
        val dims = dimsOf.slice(lo, hi)
        val out = mode match {
          case FastBatched =>
            RelClusteringFast.runBatched(sample, n, dims, x, alpha, r, k, gamma, conf, rng)
          case FastFaithful =>
            RelClusteringFast.run(index, dims, x, alpha, r, k, gamma, conf, rng)
          case SlowDeterministic =>
            RelClusteringSlow.run(index, dims, x, alpha, r, k, gamma, conf, rng)
        }
        maxCoreset = math.max(maxCoreset, out.coresetSize)
        (out.centers, out.rU)
      }
    }

    val (s, rU) = solve(0, attrs.length)
    RelKResult(attrs, s, rU, n, maxCoreset)
  }
}
