package repro.join

import repro.SparkSpec

class SchemaSpec extends SparkSpec {
  import spark.implicits._

  /** One-row relation with the given column names (GYO only reads schemas). */
  private def rel2(name: String, cols: Seq[String]): Relation = {
    val df = Seq(0).toDF("tmp")
    val wide = cols.foldLeft(df)((d, c) =>
      d.withColumn(c, org.apache.spark.sql.functions.lit(1.0))).drop("tmp")
    Relation(name, wide)
  }

  test("GYO accepts a path join and finds a tree") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a1", "b")), rel2("r2", Seq("b", "c")), rel2("r3", Seq("c", "a2"))))
    assert(q.isDefined)
    assert(q.get.edges.size == 2)
  }

  test("GYO accepts a star (FK) join") {
    val q = GYO.joinTree(Seq(
      rel2("f", Seq("k1", "k2", "v")), rel2("d1", Seq("k1", "x")), rel2("d2", Seq("k2", "y"))))
    assert(q.isDefined)
  }

  test("GYO rejects the triangle query") {
    val q = GYO.joinTree(Seq(
      rel2("r", Seq("a", "b")), rel2("s", Seq("b", "c")), rel2("t", Seq("c", "a"))))
    assert(q.isEmpty)
    assert(!GYO.isAcyclic(Seq(
      rel2("r", Seq("a", "b")), rel2("s", Seq("b", "c")), rel2("t", Seq("c", "a")))))
  }

  test("GYO accepts a single relation") {
    assert(GYO.joinTree(Seq(rel2("r", Seq("a", "b", "c")))).isDefined)
  }

  test("allAttrs is sorted and distinct") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a1", "b")), rel2("r2", Seq("b", "c")), rel2("r3", Seq("c", "a2")))).get
    assert(q.allAttrs == Seq("a1", "a2", "b", "c"))
  }

  test("rooted() reaches every relation from any root") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a1", "b")), rel2("r2", Seq("b", "c")), rel2("r3", Seq("c", "a2")))).get
    for (r <- Seq("r1", "r2", "r3")) {
      val t = q.rooted(r)
      assert(t.rel.name == r)
      assert(t.relations.map(_.name).toSet == Set("r1", "r2", "r3"))
    }
  }

  test("rooted tree children share attributes with their parent") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a1", "b")), rel2("r2", Seq("b", "c")), rel2("r3", Seq("c", "a2")))).get
    def check(t: JoinTree): Unit = t.children.foreach { c =>
      assert(t.rel.attrSet.intersect(c.rel.attrSet).nonEmpty)
      check(c)
    }
    check(q.rooted("r2"))
  }

  test("rooted() rejects unknown relation names") {
    val q = GYO.joinTree(Seq(rel2("r1", Seq("a", "b")), rel2("r2", Seq("b", "c")))).get
    intercept[IllegalArgumentException](q.rooted("nope"))
  }

  test("GYO handles a 4-relation chain") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a", "b")), rel2("r2", Seq("b", "c")),
      rel2("r3", Seq("c", "d")), rel2("r4", Seq("d", "e"))))
    assert(q.isDefined)
    assert(q.get.rooted("r1").relations.size == 4)
  }

  test("GYO rejects a 4-cycle") {
    val q = GYO.joinTree(Seq(
      rel2("r1", Seq("a", "b")), rel2("r2", Seq("b", "c")),
      rel2("r3", Seq("c", "d")), rel2("r4", Seq("d", "a"))))
    assert(q.isEmpty)
  }
}
