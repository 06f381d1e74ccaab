package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.bench.Harness
import repro.cluster.KMeansAlg
import repro.core.{CoreConf, FastBatched, RelKClustering}
import repro.baselines.FullJoin

/** spark-submit entrypoint for T2-scaleN: time of NEW-fast vs the two-step
  * baseline as the join blows up (key domain swept downward).
  *
  * Usage: RunScaling [rows] [nKeys1,nKeys2,...] [k]
  */
object RunScaling {
  def main(args: Array[String]): Unit = {
    val rows = args.lift(0).map(_.toLong).getOrElse(40000L)
    val sweep = args.lift(1).map(_.split(",").map(_.toLong).toSeq)
      .getOrElse(Seq(20000L, 6000L, 2000L))
    val k = args.lift(2).map(_.toInt).getOrElse(5)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-scaling")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 50000, seed = 11)
    println(f"${"nKeys"}%8s ${"|q(D)|"}%12s ${"NEW-fast_s"}%11s ${"full-join_s"}%12s")
    sweep.foreach { nk =>
      val q = SynthData.pathQuery(spark, rows, nk)
      val (fast, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
      val (base, tBase) = Harness.time(FullJoin.run(q, k, KMeansAlg(), 11, collectCap = 500000))
      println(f"$nk%8d ${fast.nJoin.toLong}%12d $tFast%11.2f $tBase%12.2f")
      q.relations.foreach(_.df.unpersist())
    }
    spark.stop()
  }
}

/** spark-submit entrypoint for T3-scaleK: k-sweep of NEW-fast vs the
  * rk-means grid coreset vs the two-step baseline.
  *
  * Usage: RunScaleK [rows] [nKeys] [k1,k2,...]
  */
object RunScaleK {
  def main(args: Array[String]): Unit = {
    val rows = args.lift(0).map(_.toLong).getOrElse(2000L)
    val nKeys = args.lift(1).map(_.toLong).getOrElse(400L)
    val ks = args.lift(2).map(_.split(",").map(_.toInt).toSeq).getOrElse(Seq(2, 4, 8))

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-scalek")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val q = SynthData.pathQuery(spark, rows, nKeys)
    val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 30000, seed = 13)

    println(f"${"k"}%3s ${"NEW_s"}%8s ${"rk_s"}%8s ${"rk_grid"}%8s ${"join_s"}%8s")
    ks.foreach { k =>
      val (_, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
      val (rk, tRk) = Harness.time(repro.baselines.RkMeans.run(q, k, KMeansAlg(), seed = 13))
      val (_, tBase) = Harness.time(FullJoin.run(q, k, KMeansAlg(), seed = 13))
      println(f"$k%3d $tFast%8.2f $tRk%8.2f ${rk.gridSize}%8d $tBase%8.2f")
    }
    spark.stop()
  }
}

/** spark-submit entrypoint for T4-cyclic: the triangle query via GHD.
  *
  * Usage: RunCyclic [rows] [nKeys] [k]
  */
object RunCyclic {
  def main(args: Array[String]): Unit = {
    val rows = args.lift(0).map(_.toLong).getOrElse(20000L)
    val nKeys = args.lift(1).map(_.toLong).getOrElse(600L)
    val k = args.lift(2).map(_.toInt).getOrElse(4)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-cyclic")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val r = SynthData.triangleR(spark, rows, nKeys, seed = 1).cache()
    val s = SynthData.triangleS(spark, rows, nKeys, seed = 2).cache()
    val t = SynthData.triangleT(spark, rows, nKeys, seed = 3).cache()
    r.count(); s.count(); t.count()
    val q = repro.join.GHD.triangle(r, s, t)
    val conf = CoreConf(epsilon = 0.5, cellsPerSide = 8, sampleSize = 20000, seed = 17)
    val (fast, tFast) = Harness.time(RelKClustering.run(q, k, KMeansAlg(), conf, FastBatched))
    println(f"triangles=${fast.nJoin.toLong} NEW-fast time=$tFast%.2f s rU=${fast.rU}%.4g")
    spark.stop()
  }
}
