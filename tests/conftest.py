from ksphere.groups import GroupSpec, LambdaSpec, build_group, build_sign_hom


def group_with_lambda(spec: GroupSpec, convention: str):
    table = build_group(spec)
    lam = build_sign_hom(table, spec, LambdaSpec(convention=convention))
    return table, lam
