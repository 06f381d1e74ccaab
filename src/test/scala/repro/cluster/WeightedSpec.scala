package repro.cluster

import org.scalacheck.{Gen, Prop, Properties}
import Prop.forAll

/** Property tests (ScalaCheck) for the weighted-point-set primitives. */
object WeightedProps extends Properties("Weighted") {
  import Weighted._
  import repro.TestData.costUnweighted

  private val pt: Gen[Array[Double]] =
    Gen.listOfN(3, Gen.chooseNum(-100.0, 100.0)).map(_.toArray)
  private val pts: Gen[Array[Array[Double]]] =
    Gen.nonEmptyListOf(pt).map(_.toArray)

  property("dist symmetric & nonnegative") = forAll(pt, pt) { (a, b) =>
    dist(a, b) >= 0 && math.abs(dist(a, b) - dist(b, a)) < 1e-9
  }

  property("triangle inequality") = forAll(pt, pt, pt) { (a, b, c) =>
    dist(a, c) <= dist(a, b) + dist(b, c) + 1e-9
  }

  property("distSq = dist^2") = forAll(pt, pt) { (a, b) =>
    math.abs(distSq(a, b) - dist(a, b) * dist(a, b)) < 1e-6
  }

  property("dist(a,a) = 0") = forAll(pt)(a => dist(a, a) == 0.0)

  property("nearest is the argmin") = forAll(pt, pts) { (p, centers) =>
    val i = nearest(p, centers)
    val best = centers.map(c => distSq(p, c)).min
    math.abs(distSq(p, centers(i)) - best) < 1e-9
  }

  property("minDistSq agrees with nearest") = forAll(pt, pts) { (p, centers) =>
    math.abs(minDistSq(p, centers) - distSq(p, centers(nearest(p, centers)))) < 1e-9
  }

  property("unit weights = unweighted cost") = forAll(pts, pts) { (ps, cs) =>
    val w = Array.fill(ps.length)(1.0)
    Seq(Median, Means).forall(o =>
      math.abs(cost(ps, w, cs, o) - costUnweighted(ps, cs, o)) < 1e-6)
  }

  property("cost scales linearly in weights") =
    forAll(pts, pts, Gen.chooseNum(0.1, 10.0)) { (ps, cs, s) =>
      val w1 = Array.fill(ps.length)(1.0)
      val w2 = Array.fill(ps.length)(s)
      Seq(Median, Means).forall { o =>
        val c1 = cost(ps, w1, cs, o); val c2 = cost(ps, w2, cs, o)
        math.abs(c2 - s * c1) <= 1e-6 * (1 + math.abs(c2))
      }
    }

  property("adding a center never increases cost") = forAll(pts, pts, pt) { (ps, cs, extra) =>
    val w = Array.fill(ps.length)(1.0)
    Seq(Median, Means).forall(o => cost(ps, w, cs :+ extra, o) <= cost(ps, w, cs, o) + 1e-9)
  }

  property("Median vs Means on a worked example") = Prop {
    val p = Array(Array(0.0), Array(3.0))
    val w = Array(1.0, 2.0)
    val c = Array(Array(1.0))
    math.abs(cost(p, w, c, Median) - 5.0) < 1e-9 &&
      math.abs(cost(p, w, c, Means) - 9.0) < 1e-9
  }
}
