package repro.core

import repro.{SparkSpec, TestData}
import repro.cluster._
import repro.cluster.Weighted.Pt
import repro.join.LocalJoinIndex
import scala.util.Random

/** Verifies the heart of the paper: Algorithms 1 and 2 build weighted
  * coresets of q_u(D) with the eps-coreset property (Lemmas 3.2, 3.9, A.2,
  * A.6) — checked directly against the materialized join at tiny scale.
  */
class CoresetSpec extends SparkSpec {

  private lazy val q = TestData.pathQuery(spark)
  private lazy val index = LocalJoinIndex.build(q)
  private lazy val truth = TestData.materializePts(q)
  private lazy val dims: Array[Int] = Array("a1", "a2").map(index.attrIdx)
  private lazy val proj: Array[Pt] = truth.map(t => dims.map(t(_)))
  private lazy val projSet: Set[Seq[Double]] = proj.map(_.toSeq).toSet

  private val k = 3
  private val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 4000,
    perCellSamples = 48, heavyFraction = 0.02, seed = 1)

  /** A constant-factor X (|X| = k^2) with its exact cost r — what Algorithm 3
    * would hand to Section 3 (here built from the ground truth for testing).
    */
  private def makeX(obj: Objective, seed: Long): (Array[Pt], Double) = {
    val rng = new Random(seed)
    val sub = Array.fill(2000)(proj(rng.nextInt(proj.length)))
    val w = Array.fill(sub.length)(1.0)
    val alg: GammaAlg = if (obj == Means) KMeansAlg() else KMedianAlg()
    val x = alg.cluster(sub, w, k * k, rng)
    val r = Weighted.costUnweighted(proj, x, obj) * 1.02
    (x, r)
  }

  private def coresetError(corePts: Array[Pt], coreW: Array[Double],
                           obj: Objective, trials: Int, seed: Long): Double = {
    val rng = new Random(seed)
    (1 to trials).map { _ =>
      val y = Array.fill(k)(Array(rng.nextDouble() * 100, rng.nextDouble() * 100))
      val onCore = Weighted.cost(corePts, coreW, y, obj)
      val onAll = Weighted.costUnweighted(proj, y, obj)
      math.abs(onCore - onAll) / onAll
    }.max
  }

  // ------------------------ the shared grid walk -------------------------

  for ((name, obj, seed) <- Seq(("k-median", Median, 51L), ("k-means", Means, 52L)))
    test(s"GridWalk ($name): every cell meets the data box and passes condition (3); " +
      "every projected join tuple lies in a cell") {
      val (x, r) = makeX(obj, seed)
      val grids = GridWalk.grids(obj, 2.0, r, index.n, conf.cellsPerSide, x)
      val cells = GridWalk.cells(grids, index, dims).toArray
      val dataBox = Box(Array.tabulate(2)(d => proj.map(_(d)).min),
        Array.tabulate(2)(d => math.nextUp(proj.map(_(d)).max)))
      // the centers whose grid has each cell, from every ring of every grid
      val owners = (for {
        i <- x.indices; j <- 0 to grids(i).jMax; key <- grids(i).cellsOfRing(i, j)
        b = grids(i).boxOf(key)
      } yield ((b.lo.toSeq, b.hi.toSeq), i)).groupMap(_._1)(_._2)
      assert(cells.nonEmpty)
      cells.foreach { box =>
        val where = s"cell ${box.lo.toSeq} - ${box.hi.toSeq}"
        assert(box.intersects(dataBox), s"$where misses the data")
        val is = owners.getOrElse((box.lo.toSeq, box.hi.toSeq), Nil)
        assert(is.exists(i => SubSpace.condition3(x(i), x, box)), s"$where fails condition (3)")
      }
      val missed = proj.distinctBy(_.toSeq).filterNot(p => cells.exists(_.contains(p)))
      assert(missed.isEmpty, s"${missed.length} tuples in no cell, e.g. ${missed.headOption.map(_.toSeq)}")
    }

  // ----------------------------- Algorithm 1 -----------------------------

  test("Alg1 (k-median): coreset weights sum exactly to |q(D)|") {
    val (x, r) = makeX(Median, 11)
    val out = RelClusteringSlow.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(1))
    assert(math.abs(out.coreW.sum - index.n) < 1e-6 * index.n,
      s"sum=${out.coreW.sum} n=${index.n}")
  }

  test("Alg1 (k-median): eps-coreset property against the materialized join") {
    val (x, r) = makeX(Median, 12)
    val out = RelClusteringSlow.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(2))
    val err = coresetError(out.corePts, out.coreW, Median, 10, 3)
    assert(err < 0.30, s"max relative coreset error $err")
  }

  test("Alg1 (k-means): eps-coreset property") {
    val (x, r) = makeX(Means, 13)
    val out = RelClusteringSlow.run(index, dims, x, 2.0, r, k, KMeansAlg(), conf, new Random(4))
    assert(math.abs(out.coreW.sum - index.n) < 1e-6 * index.n)
    val err = coresetError(out.corePts, out.coreW, Means, 10, 5)
    assert(err < 0.35, s"max relative coreset error $err")
  }

  test("Alg1: representatives are genuine projected join tuples") {
    val (x, r) = makeX(Median, 14)
    val out = RelClusteringSlow.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(6))
    out.corePts.foreach(p => assert(projSet.contains(p.toSeq)))
  }

  test("Alg1: coreset is small (|C| = O(|X| eps^-d log N))") {
    val (x, r) = makeX(Median, 15)
    val out = RelClusteringSlow.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(7))
    assert(out.coresetSize > 0)
    assert(out.coresetSize < proj.length / 5, s"coreset ${out.coresetSize} vs n=${proj.length}")
  }

  // ------------------------ Algorithm 2 (faithful) ------------------------

  test("Alg2 faithful (k-median): weights approximately sum to |q(D)|") {
    val (x, r) = makeX(Median, 21)
    val out = RelClusteringFast.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(8))
    assert(out.coreW.sum > 0.75 * index.n && out.coreW.sum < 1.35 * index.n,
      s"sum=${out.coreW.sum} n=${index.n}")
  }

  test("Alg2 faithful (k-median): approximate coreset property") {
    val (x, r) = makeX(Median, 22)
    val out = RelClusteringFast.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(9))
    val err = coresetError(out.corePts, out.coreW, Median, 8, 10)
    assert(err < 0.40, s"max relative coreset error $err")
  }

  test("Alg2 faithful: representatives are genuine projected join tuples") {
    val (x, r) = makeX(Median, 23)
    val out = RelClusteringFast.run(index, dims, x, 2.0, r, k, KMedianAlg(), conf, new Random(10))
    out.corePts.foreach(p => assert(projSet.contains(p.toSeq)))
  }

  // ------------------------ Algorithm 2 (batched) -------------------------

  test("Alg2 batched (k-median): weights sum exactly to n") {
    val (x, r) = makeX(Median, 31)
    val rng = new Random(11)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val out = RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, k,
      KMedianAlg(), conf, rng)
    assert(math.abs(out.coreW.sum - index.n) < 1e-6 * index.n)
  }

  test("Alg2 batched (k-median): approximate coreset property") {
    val (x, r) = makeX(Median, 32)
    val rng = new Random(12)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val out = RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, k,
      KMedianAlg(), conf, rng)
    val err = coresetError(out.corePts, out.coreW, Median, 8, 13)
    assert(err < 0.40, s"max relative coreset error $err")
  }

  test("Alg2 batched (k-means): approximate coreset property") {
    val (x, r) = makeX(Means, 33)
    val rng = new Random(14)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val out = RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, k,
      KMeansAlg(), conf, rng)
    val err = coresetError(out.corePts, out.coreW, Means, 8, 15)
    assert(err < 0.45, s"max relative coreset error $err")
  }

  test("Alg2 batched: coreset no larger than the sample, reps from the sample") {
    val (x, r) = makeX(Median, 34)
    val rng = new Random(16)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val out = RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, k,
      KMedianAlg(), conf, rng)
    assert(out.coresetSize <= sample.length)
    assert(out.coresetSize < sample.length / 2, "batched coreset should compress the sample")
    out.corePts.foreach(p => assert(projSet.contains(p.toSeq)))
  }

  // --------------------------- certificates ------------------------------

  test("r_u upper-bounds the true cost of the returned centers (all engines)") {
    val (xm, rm) = makeX(Median, 41)
    val rng = new Random(17)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val outs = Seq(
      RelClusteringSlow.run(index, dims, xm, 2.0, rm, k, KMedianAlg(), conf, new Random(18)),
      RelClusteringFast.run(index, dims, xm, 2.0, rm, k, KMedianAlg(), conf, new Random(19)),
      RelClusteringFast.runBatched(sample, index.n, dims, xm, 2.0, rm, k,
        KMedianAlg(), conf, new Random(20))
    )
    outs.foreach { out =>
      val trueCost = Weighted.costUnweighted(proj, out.centers, Median)
      assert(trueCost <= out.rU * 1.15, s"cost=$trueCost rU=${out.rU}")
      assert(out.rU <= trueCost * 3.0, s"rU=${out.rU} not a tight certificate of $trueCost")
    }
  }

  test("the refined solution is no worse than a constant factor of X's cost") {
    val (x, r) = makeX(Median, 42)
    val rng = new Random(21)
    val sample = index.sampleUniform(conf.sampleSize, rng)
    val out = RelClusteringFast.runBatched(sample, index.n, dims, x, 2.0, r, k,
      KMedianAlg(), conf, rng)
    // S has k centers vs X's k^2, so cost grows — but boundedly (X is
    // alpha-approx and S is (1+eps)gamma-approx of the k-center optimum)
    val costS = Weighted.costUnweighted(proj, out.centers, Median)
    val costX = Weighted.costUnweighted(proj, x, Median)
    assert(costS >= costX * 0.5)
    assert(costS <= math.max(costX * 25, costX + 1e-6), s"S=$costS X=$costX")
  }
}
