(** Scaling-law fitting: turn measured (operand size, cost) series into a
    complexity class, making the paper's O(1) claim machine-checkable.

    An operation is run at geometrically increasing operand sizes on the
    virtual clock; the per-size cycle costs are fitted with a least-squares
    line in log-log space. The fitted slope is the operation's empirical
    exponent: ~0 for constant cost, ~1 for linear. Because a logarithmic
    curve has a small but nonzero log-log slope, the classifier also looks
    at the fitted end-to-end growth (cost ratio between the largest and
    smallest operand predicted by the fit): a flat-slope series that still
    grows materially across the sweep is logarithmic, not constant. *)

type cls =
  | Constant  (** O(1): cost independent of operand size *)
  | Logarithmic  (** O(log n): sublinear but material growth *)
  | Linear  (** O(n) *)
  | Superlinear  (** worse than linear *)

val cls_name : cls -> string
(** "O(1)", "O(log n)", "O(n)", "O(n^2+)". *)

val cls_of_name : string -> cls option
(** Inverse of {!cls_name}; [None] for unknown strings. *)

val rank : cls -> int
(** Severity order, [Constant] = 0 ... [Superlinear] = 3. A rank increase
    between two bench runs is a complexity-class downgrade. *)

type lsq = { slope : float; intercept : float; r2 : float }
(** Ordinary least squares of [y = intercept + slope * x]. [r2] is the
    coefficient of determination; 1.0 when the residuals vanish (including
    the all-[y]-equal case, which a zero-slope line fits exactly). *)

val least_squares : (float * float) list -> lsq
(** Raises [Invalid_argument] on fewer than two points or when all [x]
    coincide. *)

type fit = {
  exponent : float;  (** log-log slope: the empirical scaling exponent *)
  r2 : float;  (** quality of the log-log fit *)
  growth : float;  (** fitted cost(n_max) / cost(n_min), = ratio^exponent *)
  cls : cls;
}

val fit : (int * int) list -> fit
(** [fit points] with [points] = [(operand size, cost in cycles)]. Sizes
    must be positive; costs are clamped to >= 1 cycle so free operations
    fit cleanly. Raises [Invalid_argument] on fewer than two distinct
    sizes. *)

val classify : exponent:float -> growth:float -> cls
(** The classification rule used by {!fit}, exposed for tests:
    exponent >= 1.4 is [Superlinear], >= 0.6 is [Linear]; below that,
    fitted growth > 2x across the sweep is [Logarithmic], else
    [Constant]. *)

val fit_to_json : fit -> Json.t
(** Object with "class", "exponent", "r2", "growth". *)
