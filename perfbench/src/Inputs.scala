package perfbench

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.join.{AcyclicQuery, GYO, Relation}

/** Seeded inputs: the path join R1(a1,b) ⋈ R2(b,c) ⋈ R3(c,a2) with the
  * distributions of `SynthData.pathR1/R2/R3` (Gaussian-mixture value
  * columns with sigma = 3, uniform join keys on a [0, 100] grid), here with
  * `nComp` mixture components in both value columns.
  *
  * Every value is a function of (seed, column salt, row id) through
  * `xxhash64`, so a table depends on its seed and size alone — not on the
  * partition count, which `rand(seed)` would fold in.
  */
object Inputs {
  private val TwoPow53 = (1L << 53).toDouble

  /** Uniform on [0, 1): the top 53 bits of xxhash64(seed, salt, id). */
  private def uniform(seed: Long, salt: Int): Column =
    shiftrightunsigned(xxhash64(lit(seed), lit(salt), col("id")), 11).cast("double") / TwoPow53

  /** Standard normal by Box-Muller over two independent uniforms. */
  private def gaussian(seed: Long, salt: Int): Column =
    sqrt(log(lit(1.0) - uniform(seed, salt)) * -2.0) * cos(uniform(seed, salt + 1) * (2 * math.Pi))

  /** `nComp` equal-weight components at 100 i/(nComp+1), i = 1..nComp. */
  private def mixture(seed: Long, salt: Int, nComp: Int, sigma: Double): Column =
    (floor(uniform(seed, salt) * nComp) + 1) * (100.0 / (nComp + 1)) + gaussian(seed, salt + 1) * sigma

  /** nKeys distinct values, uniform on a [0, 100] grid. */
  private def key(seed: Long, salt: Int, nKeys: Long): Column =
    (floor(uniform(seed, salt) * nKeys) + 1) * (100.0 / nKeys)

  def pathRelations(spark: SparkSession, rows: Long, nKeys: Long, nComp: Int, seed: Long): Seq[Relation] = Seq(
    Relation("r1", spark.range(rows).select(
      mixture(seed, 10, nComp, 3.0).as("a1"), key(seed, 20, nKeys).as("b"))),
    Relation("r2", spark.range(rows).select(
      key(seed, 30, nKeys).as("b"), key(seed, 40, nKeys).as("c"))),
    Relation("r3", spark.range(rows).select(
      key(seed, 50, nKeys).as("c"), mixture(seed, 60, nComp, 3.0).as("a2"))))

  /** Generate, cache and count; returns the query and its input row count. */
  def cachedPathQuery(spark: SparkSession, rows: Long, nKeys: Long, nComp: Int,
                      seed: Long): (AcyclicQuery, Long) = {
    val rels = pathRelations(spark, rows, nKeys, nComp, seed).map(r => r.copy(df = r.df.cache()))
    val n = rels.map(_.df.count()).sum
    (GYO.joinTree(rels).get, n)
  }

  /** Order-independent checksum of every input row. */
  def checksum(q: AcyclicQuery): BigDecimal =
    q.relations.map { r =>
      BigDecimal(r.df.agg(sum(xxhash64(r.df.columns.map(col): _*).cast("decimal(20,0)")))
        .head.getDecimal(0))
    }.sum

  def unpersist(q: AcyclicQuery): Unit = q.relations.foreach(_.df.unpersist(blocking = true))
}
