package repro.join

import repro.{Oracle, SparkSpec, SynthData}

class GHDSpec extends SparkSpec {
  import spark.implicits._

  private lazy val r = SynthData.triangleR(spark, 400, 25, seed = 1).cache()
  private lazy val s = SynthData.triangleS(spark, 400, 25, seed = 2).cache()
  private lazy val t = SynthData.triangleT(spark, 400, 25, seed = 3).cache()

  test("triangle bag materialization matches DuckDB") {
    val q = GHD.triangle(r, s, t)
    val cnt = Yannakakis.countJoin(q)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM r, s, t " +
        "WHERE r.b = s.b AND s.c = t.c AND t.a = r.a",
      "r" -> r, "s" -> s, "t" -> t)
  }

  test("the triangle decomposition is a single-bag acyclic query") {
    val q = GHD.triangle(r, s, t)
    assert(q.relations.size == 1)
    assert(q.allAttrs == Seq("a", "b", "c"))
  }

  test("multi-bag GHD: 4-cycle split into two bags") {
    // R1(a,b) R2(b,c) R3(c,d) R4(d,a): bags {a,b,c} = R1⋈R2, {a,c,d} = R3⋈R4
    // renamings of r1 read r1's cache: Spark takes them for the same plan
    val r1 = SynthData.triangleR(spark, 300, 20, seed = 11).cache()
    val r2 = r1.toDF("b", "c")
    val r3 = r1.toDF("c", "d")
    val r4 = r1.toDF("d", "a")
    val q = GHD.toAcyclic(Seq(
      "bag1" -> Seq(Relation("r1", r1.toDF("a", "b")), Relation("r2", r2)),
      "bag2" -> Seq(Relation("r3", r3), Relation("r4", r4))))
    val cnt = Yannakakis.countJoin(q)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("cnt"),
      "SELECT COUNT(*) AS cnt FROM r1, r2, r3, r4 " +
        "WHERE r1.b = r2.b AND r2.c = r3.c AND r3.d = r4.d AND r4.a = r1.a",
      "r1" -> r1.toDF("a", "b"), "r2" -> r2, "r3" -> r3, "r4" -> r4)
  }

  test("invalid GHD skeleton is rejected") {
    // three bags forming a cyclic hypergraph
    val one = Seq(0.0).toDF("x")
    def rel(n: String, cols: Seq[String]) = Relation(n,
      cols.foldLeft(one)((d, c) => d.withColumn(c, org.apache.spark.sql.functions.lit(1.0)))
        .drop("x"))
    intercept[RuntimeException] {
      GHD.toAcyclic(Seq(
        "b1" -> Seq(rel("u", Seq("a", "b"))),
        "b2" -> Seq(rel("v", Seq("b", "c"))),
        "b3" -> Seq(rel("w", Seq("c", "a")))))
    }
  }
}
