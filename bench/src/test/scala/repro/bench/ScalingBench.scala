package repro.bench

import repro.{SparkSpec, SynthData}
import repro.baselines.{CostEval, FullJoin, RkMeans}
import repro.cluster.{KMeansAlg, Means}
import repro.core.{CoreConf, FastBatched, RelKClustering}

/** T2-scaleN — the running-time column of Table 1: the NEW algorithm scales
  * with the *input* size N (inputs fixed here) while the two-step baseline
  * scales with |q(D)| (swept via key multiplicity: smaller key domains =>
  * bigger joins).
  */
class ScalingNBench extends SparkSpec {
  private val rows = 40000L
  private val k = 5
  private val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 50000, seed = 11)

  test("T2-scaleN: NEW-fast vs full-join as the join blows up") {
    val sweep = Seq(20000L, 6000L, 2000L, 200L) // |q(D)| ~ 1.6e5 .. 1.6e9
    // untimed warmup: JIT + Spark codegen caches, so point 1 isn't inflated
    locally {
      val wq = SynthData.pathQuery(spark, 2000, 500)
      RelKClustering.run(wq, k, KMeansAlg(), conf.copy(sampleSize = 5000), FastBatched)
      FullJoin.run(wq, k, KMeansAlg(), seed = 11)
      wq.relations.foreach(_.df.unpersist())
    }
    val results = sweep.map { nk =>
      val q = SynthData.pathQuery(spark, rows, nk)
      val gamma = KMeansAlg()
      val (fast, tFast) = Harness.time(RelKClustering.run(q, k, gamma, conf, FastBatched))
      val (base, tBase) = Harness.time(FullJoin.run(q, k, gamma, seed = 11, collectCap = 500000))
      q.relations.foreach(_.df.unpersist())
      (nk, fast.nJoin.toLong, tFast, tBase)
    }
    println("== T2-scaleN path(rows=40000) k=5, k-means ==")
    println(f"${"nKeys"}%8s ${"|q(D)|"}%12s ${"NEW-fast_s"}%11s ${"full-join_s"}%12s ${"blowup"}%8s")
    results.foreach { case (nk, jn, tf, tb) =>
      println(f"$nk%8d $jn%12d $tf%11.2f $tb%12.2f ${jn.toDouble / (3 * rows)}%8.1f")
    }
    // shape: the baseline's time grows with |q(D)|; NEW's stays ~flat in N
    val (_, j0, tf0, tb0) = results.head
    val (_, j2, tf2, tb2) = results.last
    assert(j2 > 200 * j0, "sweep must actually blow the join up")
    val fastGrowth = tf2 / tf0
    val baseGrowth = tb2 / tb0
    assert(fastGrowth < 0.5 * baseGrowth,
      s"NEW growth $fastGrowth should be far below full-join growth $baseGrowth")
    assert(tf2 < tb2 * 1.5,
      s"at |q(D)|=$j2 NEW ($tf2 s) should be at/past the crossover vs full-join ($tb2 s)")
  }
}

/** T3-scaleK — the k-dependence of Table 1: NEW carries k^2 (|X| = k^2 and a
  * k^2-point cross product), rk-means [23] carries k^d grid cells.
  */
class ScalingKBench extends SparkSpec {
  private val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 30000, seed = 13)

  test("T3-scaleK: time and grid growth vs k") {
    val q = Table1Workload.query(spark)
    val results = Seq(2, 4, 8).map { k =>
      val gamma = KMeansAlg()
      val (fast, tFast) = Harness.time(RelKClustering.run(q, k, gamma, conf, FastBatched))
      val (rk, tRk) = Harness.time(RkMeans.run(q, k, gamma, seed = 13))
      val (base, tBase) = Harness.time(FullJoin.run(q, k, gamma, seed = 13))
      val baseCost = CostEval.cost(q, base.centers, q.allAttrs, Means)
      val fastCost = CostEval.cost(q, fast.centers, q.allAttrs, Means)
      val rkCost = CostEval.cost(q, rk.centers, q.allAttrs, Means)
      (k, tFast, fastCost / baseCost, tRk, rk.gridSize, rkCost / baseCost, tBase)
    }
    println(s"== T3-scaleK path(rows=${Table1Workload.rows},keys=${Table1Workload.nKeys}), k-means ==")
    println(f"${"k"}%3s ${"NEW_s"}%8s ${"NEW_ratio"}%10s ${"rk_s"}%8s ${"rk_grid"}%8s ${"rk_ratio"}%9s ${"join_s"}%8s")
    results.foreach { case (k, tf, fr, tr, g, rr, tb) =>
      println(f"$k%3d $tf%8.2f $fr%10.3f $tr%8.2f $g%8d $rr%9.3f $tb%8.2f")
    }
    // shape: rk-means' grid grows like k^d; NEW stays accurate at every k
    val grid2 = results.head._5
    val grid8 = results.last._5
    assert(grid8 > 8 * grid2, s"grid should grow super-linearly in k: $grid2 -> $grid8")
    results.foreach { case (k, _, fr, _, _, _, _) =>
      assert(fr <= 2.0, s"NEW-fast ratio $fr at k=$k")
    }
  }
}

/** T4-cyclic — Section 4.2 / Theorem 4.3: the triangle query via its GHD,
  * N^fhw bag materialization + the unchanged acyclic pipeline.
  */
class CyclicBench extends SparkSpec {
  private val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 20000, seed = 17)

  test("T4-cyclic: triangle query end-to-end") {
    val rows = 20000L; val nKeys = 600L; val k = 4
    val r = SynthData.triangleR(spark, rows, nKeys, seed = 1).cache()
    val s = SynthData.triangleS(spark, rows, nKeys, seed = 2).cache()
    val t = SynthData.triangleT(spark, rows, nKeys, seed = 3).cache()
    r.count(); s.count(); t.count()
    val (q, tGhd) = Harness.time(repro.join.GHD.triangle(r, s, t))
    val gamma = KMeansAlg()
    val (fast, tFast) = Harness.time(RelKClustering.run(q, k, gamma, conf, FastBatched))
    val (base, tBase) = Harness.time(FullJoin.run(q, k, gamma, seed = 17))
    val baseCost = CostEval.cost(q, base.centers, q.allAttrs, Means)
    val fastCost = CostEval.cost(q, fast.centers, q.allAttrs, Means)
    println("== T4-cyclic triangle(rows=20000,keys=600) k=4, k-means ==")
    println(f"|triangles|=${fast.nJoin.toLong} ghd_s=$tGhd%.2f")
    println(f"NEW-fast:  cost=$fastCost%.4g ratio=${fastCost / baseCost}%.3f time=$tFast%.2f s")
    println(f"full-join: cost=$baseCost%.4g ratio=1.000 time=$tBase%.2f s")
    assert(fast.nJoin > 0)
    assert(fastCost <= 2.0 * baseCost, s"cyclic ratio ${fastCost / baseCost}")
  }
}
