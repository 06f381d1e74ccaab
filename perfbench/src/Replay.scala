package perfbench

import perfbench.Workload.{Gamma, K}
import repro.cluster.{Means, Weighted}
import repro.cluster.Weighted.Pt
import repro.core.{ClusterOut, CoreConf, FastBatched, Mode, RelClusteringFast, RelClusteringSlow,
  SlowDeterministic}
import repro.join.{AcyclicQuery, LeafHistogram, LocalJoinIndex, Yannakakis}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Traced replays of the Table 1 methods, built from the program's public
  * calls only, with one span around each call into a layer.
  */
object Replay {
  final case class NewRun(centers: Array[Pt], index: LocalJoinIndex, inner: Seq[ClusterOut])

  /** `RelKClustering.run` step by step: the same attribute order, the same
    * alpha and the same rng sequence. The reduced relations are cached and
    * counted inside the reduce span, and unpersisted before returning.
    */
  def relK(q0: AcyclicQuery, conf: CoreConf, mode: Mode, tr: Tracer): NewRun = {
    val q = tr.span("join.reduce") {
      val red = Yannakakis.fullReduce(q0)
      val cached = red.copy(relations = red.relations.map(r => r.copy(df = r.df.cache())))
      cached.relations.foreach(_.df.count())
      cached
    }
    try {
      val index = tr.span("join.index_build")(LocalJoinIndex.build(q))
      val n = index.n
      require(n > 0, "join result is empty")
      val rng = new Random(conf.seed)
      val attrs = q.allAttrs.filterNot(_.startsWith(Yannakakis.CarryPrefix))
      val dimsOf = attrs.map(index.attrIdx).toArray
      val sample: Array[Array[Double]] =
        if (mode == FastBatched) tr.span("join.sample_uniform")(index.sampleUniform(conf.sampleSize, rng))
        else Array.empty
      // alpha of Lemma 4.1 for the geometric k-means gamma-algorithm
      val alpha = 1 + conf.epsilon
      val inner = ArrayBuffer.empty[ClusterOut]

      def solve(lo: Int, hi: Int): (Array[Pt], Double) =
        if (hi - lo == 1) {
          val hist = tr.span("join.leaf_histogram")(LeafHistogram.histogram(q, attrs(lo)))
          val pts = hist.map(h => Array(h._1))
          val w = hist.map(_._2)
          val s = tr.span("cluster.leaf_gamma")(Gamma.cluster(pts, w, K, rng))
          (s, Weighted.cost(pts, w, s, Means))
        } else {
          val mid = lo + (hi - lo) / 2
          val (sv, rv) = solve(lo, mid)
          val (sz, rz) = solve(mid, hi)
          val x = for (a <- sv; b <- sz) yield a ++ b
          val dims = dimsOf.slice(lo, hi)
          val out = mode match {
            case FastBatched => tr.span("core.alg2")(
              RelClusteringFast.runBatched(sample, n, dims, x, alpha, rv + rz, K, Gamma, conf, rng))
            case SlowDeterministic => tr.span("core.alg1")(
              RelClusteringSlow.run(index, dims, x, alpha, rv + rz, K, Gamma, conf, rng))
            case other => throw new IllegalArgumentException(s"no replay for mode $other")
          }
          inner += out
          (out.centers, out.rU)
        }

      NewRun(solve(0, attrs.length)._1, index, inner.toSeq)
    } finally q.relations.foreach(_.df.unpersist(blocking = true))
  }

  /** `FullJoin.run` step by step: count the materialized join, collect it or
    * a capped sample of it, then cluster the collected rows.
    */
  def fullJoin(q: AcyclicQuery, seed: Long, collectCap: Int, tr: Tracer): Array[Pt] = {
    val join = Yannakakis.materialize(q)
    val total = tr.span("join.materialize")(join.count())
    val rows = tr.span("join.full_join_collect") {
      if (total <= collectCap) join.collect()
      else join.sample(withReplacement = false, collectCap.toDouble / total, seed).collect()
    }
    val pts = rows.map(r => Array.tabulate(r.length)(i => r.getAs[Number](i).doubleValue()))
    tr.span("cluster.full_join_gamma")(Gamma.cluster(pts, Array.fill(pts.length)(1.0), K, new Random(seed)))
  }

  /** Mean microseconds per CountRect and per SampleRect (z = 1) call over
    * `n` seeded boxes, each constraining 2 of the index's attributes to a
    * random interval inside the data's bounds.
    */
  def boxCalls(index: LocalJoinIndex, n: Int, seed: Long): (Double, Double) = {
    val rng = new Random(seed)
    val (bLo, bHi) = index.bounds
    val boxes = Array.fill(n) {
      val (lo, hi) = index.fullBox
      rng.shuffle(index.attrs.indices.toList).take(2).foreach { a =>
        val span = bHi(a) - bLo(a)
        lo(a) = bLo(a) + rng.nextDouble() * span
        hi(a) = lo(a) + rng.nextDouble() * span / 2
      }
      (lo, hi)
    }
    def perCall(f: ((Array[Double], Array[Double])) => Any): Double = {
      val t0 = System.nanoTime()
      boxes.foreach(f)
      (System.nanoTime() - t0) / 1e3 / n
    }
    val countUs = perCall { case (lo, hi) => index.countBox(lo, hi) }
    val sampleRng = new Random(seed + 1)
    val sampleUs = perCall { case (lo, hi) => index.sampleBox(lo, hi, 1, sampleRng) }
    (countUs, sampleUs)
  }
}
