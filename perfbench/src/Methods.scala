package perfbench

import perfbench.Workload.{Gamma, K, SampleSize}
import repro.baselines.{FullJoin, RelKMeansPP, RkMeans}
import repro.cluster.{GammaAlg, KMeansAlg}
import repro.cluster.Weighted.Pt
import repro.core.{CoreConf, FastBatched, RelKClustering, SlowDeterministic}
import repro.join.{AcyclicQuery, LocalJoinIndex, Yannakakis}
import scala.util.Random

/** One benchmark workload: the seeded path join and the parameters every
  * Table 1 method runs with. The workloads differ only in the number of join
  * keys (so in |q(D)|) and in how many joined rows the full join collects;
  * everything else is a constant of [[Workload]].
  */
final case class Workload(name: String, why: String, nKeys: Long, collectCap: Int) {
  import Workload._
  def conf(seed: Long): CoreConf =
    CoreConf(epsilon = Epsilon, cellsPerSide = CellsPerSide, sampleSize = SampleSize,
      heavyFraction = HeavyFraction, seed = seed)
  def slowConf(seed: Long): CoreConf = conf(seed).copy(cellsPerSide = SlowCellsPerSide)

  def params: Seq[(String, Any)] = Seq(
    "query" -> "path R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2)", "rows_per_relation" -> Rows,
    "n_keys" -> nKeys, "mixture_components" -> NComp, "k" -> K, "objective" -> "k-means",
    "epsilon" -> Epsilon, "cells_per_side" -> CellsPerSide, "heavy_fraction" -> HeavyFraction,
    "sample_size" -> SampleSize, "slow_cells_per_side" -> SlowCellsPerSide,
    "full_join_collect_cap" -> collectCap)
}

object Workload {
  val Rows = 2000L
  val NComp = 3
  val K = 3
  val Epsilon = 0.5
  val CellsPerSide = 8
  val HeavyFraction = 0.02
  val SampleSize = 30000
  /** NEW-slow's grid, as in `Table1Workload`. */
  val SlowCellsPerSide = 4
  /** Every workload runs k-means (see README.md for why not k-median). */
  val Gamma: GammaAlg = KMeansAlg()

  val all: Seq[Workload] = Seq(
    Workload("t1", "the Table 1 set-up: every method, Spark passes dominate NEW-fast, CountRect dominates NEW-slow",
      nKeys = 400, collectCap = 2_000_000),
    Workload("blowup", "t1's input size with a 45x larger join: the full join pays |q(D)|, NEW pays N",
      nKeys = 60, collectCap = 50_000))

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name' (one of ${all.map(_.name).mkString(", ")})"))
}

/** What a method returned, with the counts it claims for |q(D)|. `rU` is
  * NEW's r_U; when `certified`, its exact cost must not exceed r_U.
  */
final case class Outcome(centers: Array[Pt], rU: Option[Double], joinCounts: Seq[(String, Double)],
                         gridCells: Option[Int] = None, certified: Boolean = false)

/** The Table 1 methods, each called once through its public entry point. */
final case class Method(name: String, run: (AcyclicQuery, Workload, Long) => Outcome)

object Method {
  val newFast: Method = Method("new_fast", (q, w, seed) => {
    val r = RelKClustering.run(q, K, Gamma, w.conf(seed), FastBatched)
    Outcome(r.centers, Some(r.rU), Seq("RelKResult.nJoin" -> r.nJoin), certified = true)
  })
  /** Not `certified`: on the coarse `SlowCellsPerSide` grid Algorithm 1's
    * coreset is not an eps'-coreset, so r_U is no bound (README.md). Its
    * exact counts are checked in the traced run instead.
    */
  val newSlow: Method = Method("new_slow", (q, w, seed) => {
    val r = RelKClustering.run(q, K, Gamma, w.slowConf(seed), SlowDeterministic)
    Outcome(r.centers, Some(r.rU), Seq("RelKResult.nJoin" -> r.nJoin))
  })
  val fullJoin: Method = Method("full_join", (q, w, seed) => {
    val r = FullJoin.run(q, K, Gamma, seed, w.collectCap)
    Outcome(r.centers, None, Seq("FullJoin.joinSize" -> r.joinSize.toDouble))
  })
  val rkMeans: Method = Method("rk_means", (q, w, seed) => {
    val r = RkMeans.run(q, K, Gamma, seed)
    Outcome(r.centers, None, Seq("RkMeans.totalWeight" -> r.totalWeight), Some(r.gridSize))
  })
  val relKMeansPP: Method = Method("rel_kmeanspp", (q, w, seed) => {
    val idx = LocalJoinIndex.build(Yannakakis.fullReduce(q))
    val sample = idx.sampleUniform(SampleSize, new Random(seed))
    val r = RelKMeansPP.run(sample, idx.n, K, Gamma, seed)
    Outcome(r.centers, None, Seq("LocalJoinIndex.n" -> idx.n))
  })

  /** Fixed call order: the full join first, as the ratios' base; NEW-slow
    * last, because the garbage and the compilations it leaves behind slowed
    * the calls that followed it.
    */
  val all: Seq[Method] = Seq(fullJoin, newFast, rkMeans, relKMeansPP, newSlow)
}
