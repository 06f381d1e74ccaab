package repro.baselines

import repro.cluster.{GammaAlg, Means, Weighted}
import repro.cluster.Weighted.Pt
import scala.util.Random

/** Moseley et al. [43] — relational k-means++ coreset baseline of Table 1.
  *
  * Their algorithm simulates k-means++ (adaptive D^2 sampling) over the
  * un-materialized join via SumProd/FAQ queries and outputs a weighted
  * coreset of O(k log n) centers whose weights are the cluster sizes. We
  * substitute exact relational D^2 sampling with D^2 sampling over a large
  * uniform join sample drawn relationally (DESIGN.md §2, deviation 4); the
  * resulting coreset has the same structure and quality profile.
  */
object RelKMeansPP {
  final case class Result(centers: Array[Pt], coresetSize: Int)

  /** `sample`: uniform join sample (full-width, attr order); `n` = |q(D)|. */
  def run(sample: Array[Pt], n: Double, k: Int, gamma: GammaAlg, seed: Long): Result = {
    require(sample.nonEmpty, "empty sample")
    val rng = new Random(seed)
    val m = math.max(1, math.min(sample.length,
      k * math.max(1, math.ceil(math.log(math.max(n, 2.0)) / math.log(2.0)).toInt)))

    // k-means++ seeding with m centers over the sample (D^2 sampling); fewer
    // when all the sample's mass already sits on centers
    val centers = GammaAlg.seed(sample, Array.fill(sample.length)(1.0), m, rng, Means)

    // weights: estimated cluster sizes (relationally these are exact counts;
    // here scaled sample counts); the seeding picks distinct points, so each
    // center is its own nearest and every weight is positive
    val w = new Array[Double](centers.length)
    sample.foreach(p => w(Weighted.nearest(p, centers)) += n / sample.length)
    Result(gamma.cluster(centers, w, k, rng), centers.length)
  }
}

/** Uniform-sample coreset in the spirit of Chen et al. [20]'s additive-error
  * coresets: every sampled join tuple gets weight n/M. Cheap, but its error
  * scales with diam(q(D)) rather than OPT — the additive regime Table 1's
  * relative-approximation algorithms improve on.
  */
object UniformCoreset {
  def run(sample: Array[Pt], n: Double, k: Int, gamma: GammaAlg, seed: Long): Array[Pt] = {
    require(sample.nonEmpty, "empty sample")
    val w = Array.fill(sample.length)(n / sample.length)
    gamma.cluster(sample, w, k, new Random(seed))
  }
}
