package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.SynthData
import repro.bench.Harness
import repro.cluster.{Means, Median}
import repro.core.CoreConf

/** spark-submit entrypoint for the empirical Table 1 (T1-median / T1-means).
  *
  * Usage: RunTable1 [median|means] [rows] [nKeys] [k] [eps]
  * Defaults reproduce the bench configuration (rows=3000, nKeys=500, k=5).
  */
object RunTable1 {
  def main(args: Array[String]): Unit = {
    val obj = if (args.headOption.contains("means")) Means else Median
    val rows = args.lift(1).map(_.toLong).getOrElse(3000L)
    val nKeys = args.lift(2).map(_.toLong).getOrElse(500L)
    val k = args.lift(3).map(_.toInt).getOrElse(5)
    val eps = args.lift(4).map(_.toDouble).getOrElse(0.5)

    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-table1")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

    val q = SynthData.pathQuery(spark, rows, nKeys)

    val conf = CoreConf(epsilon = eps, cellsPerSide = 8, sampleSize = 30000,
      heavyFraction = 0.02, seed = 7)
    val out = Harness.table1(q, obj, k, conf,
      includeSlow = rows <= 5000, slowConf = conf.copy(cellsPerSide = 4))
    println(Harness.fmt(s"T1-${if (obj == Means) "means" else "median"} " +
      s"path(rows=$rows,keys=$nKeys) k=$k eps=$eps", out))
    spark.stop()
  }
}
